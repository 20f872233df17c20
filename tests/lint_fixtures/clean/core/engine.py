"""R5 negative fixture: every counter the report reads is written."""


def retire(counters):
    counters.add("ops_retired")


def build_report(counters):
    return {"retired": counters.get("ops_retired")}
