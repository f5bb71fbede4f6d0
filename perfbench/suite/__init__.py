"""The benchmark's workloads, oracle and layer timing (see README.md)."""

WORKLOADS = ("bisect_p2", "recursive_p16", "serve_kway")


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 tiny: bool = False):
    """Set up, measure and check one workload; returns its Outcome."""
    from . import inproc, serve_load

    if name == "serve_kway":
        return serve_load.run(seed, seconds, traced, tiny)
    return inproc.run(name, seed, seconds, traced, tiny)
