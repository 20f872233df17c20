"""R5 negative fixture: every counter the report reads is written."""


def retire(counters):
    counters.add("ops_retired")


def retire_load(counters, kind):
    # "loads" is the sum of the per-kind cells, written when read.
    counters.hot("loads_" + kind, part_of=("loads",))[0] += 1


def build_report(counters):
    return {"retired": counters.get("ops_retired"), "loads": counters.get("loads")}
