"""The tracer wraps every binding of a public function and restores them."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import mixnorms  # noqa: E402
from mixnorms import cli, cotype, forms, search  # noqa: E402
from spans import Tracer  # noqa: E402


def bindings():
    return (forms.sup_norm, search.sup_norm, cotype.sup_norm, mixnorms.sup_norm,
            search.mixed_norm, forms.CATALOG["triple221"], cli.main)


def test_install_wraps_every_binding_and_uninstall_restores_them():
    before = bindings()
    tracer = Tracer()
    tracer.install(mixnorms)
    try:
        assert all(a is not b for a, b in zip(bindings(), before))
        with tracer.op():
            mixnorms.certify(forms.triple221(), mixnorms.ExponentTuple.parse("2,2,1"))
    finally:
        tracer.uninstall()
    assert bindings() == before
    names = [span[3] for span in tracer.spans]
    assert {"search.certify", "forms.sup_norm.exact", "mixed_norms.mixed_norm",
            "forms.triple221", "bench.op"} <= set(names)
    m = tracer.layer_metrics()
    assert m["forms.sup_norm.exact.vertices"] == 2 ** 10
    assert m["search.certify.calls"] == 1
    assert abs(sum(m[f"{layer}.self_share"] for layer in
                   ("cli", "search", "forms", "mixed_norms", "cotype", "constants")) - 1) < 1e-12
