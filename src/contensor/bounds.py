"""``prune_bounds``, kept as the identity because perfbench's traced run
still calls it and times it as its ``bounds`` rows."""

from .ir import Plan


def prune_bounds(plan: Plan) -> Plan:
    """Return ``plan`` unchanged; perfbench's traced run is the only caller."""
    return plan
