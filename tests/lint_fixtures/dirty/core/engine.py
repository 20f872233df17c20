"""R5 positive fixture: an orphan report read."""


def retire_store(counters, kind):
    # Only the per-kind cells are counted; no total names "stores".
    counters.hot("stores_" + kind)[0] += 1


def build_report(counters):
    # BUG SHAPE: nothing ever writes this counter; the field is always 0.
    return {"walks": counters.get("page_walks_typo"), "stores": counters.get("stores")}
