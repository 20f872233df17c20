"""R5 positive fixture: an orphan report read."""


def build_report(counters):
    # BUG SHAPE: nothing ever writes this counter; the field is always 0.
    return {"walks": counters.get("page_walks_typo")}
