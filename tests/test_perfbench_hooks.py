"""The benchmark's layer hooks still find every name they wrap.

``perfbench/layers.py`` wraps entry points of the flow, the partition
scheduler, the search and the campaign runner at the names their callers
bind, and ``install`` raises when one of them is renamed or no longer
bound.  Installing the hooks here makes such a change fail the test
suite, not only the benchmark's traced run.  The test only reads
``perfbench/``.
"""

import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def test_layer_hooks_install_and_uninstall():
    import repro.campaign.runner as runner
    original = runner.run_campaign
    saved_path = list(sys.path)
    sys.path.insert(0, PERFBENCH)
    try:
        import layers
        import tracer as tracing
        bench = tracing.Tracer()
        try:
            layers.install(bench)
            assert bench._patches
            assert runner.run_campaign is not original
        finally:
            bench.uninstall()
        assert runner.run_campaign is original
    finally:
        sys.path[:] = saved_path
        for name in ("layers", "tracer"):
            sys.modules.pop(name, None)
