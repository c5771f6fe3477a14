"""The dicekit benchmark: workloads, outside-in tracer and runner (see README.md)."""
