"""perfbench reaches into tourprof by name: its traced runs rebind module
attributes, its scan microbenchmarks drive FlipState and rng.Stream, and
its certify child wraps five flags functions.  A change that removes one
of those names fails here, not only in a traced benchmark run."""

from pathlib import Path

from tourprof import flags, profiles, rng

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_perfbench_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import spans

    targets = run.inprocess_targets()
    originals = [getattr(module, attr) for module, attr, *_ in targets]
    saved = spans.install(spans.Recorder(), targets)
    try:
        assert all(getattr(module, attr) is not fn for (module, attr, *_), fn
                   in zip(targets, originals))
    finally:
        spans.restore(saved)
    assert all(getattr(module, attr) is fn for (module, attr, *_), fn
               in zip(targets, originals))
    assert callable(rng.Stream(0).next_below)
    assert callable(profiles.FlipState.flip)
    assert callable(profiles.FlipState.audit)
    for name in ("product_table", "search_certificate", "verify_certificate",
                 "write_certificate", "read_certificate"):
        assert callable(getattr(flags, name)), name
