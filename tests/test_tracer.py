"""The benchmark's outside-in tracer still fits the library.

``perfbench/spans.py`` wraps library functions and methods by name, and its
fibration metrics count only the reduction and closed-form spans that sit
directly under a fiber span.  A renamed symbol or a new layer between them
would break ``perfbench/run.py --trace 1``; this installs the tracer, runs
one query of each fibration and one certificate of each kind, and uninstalls
it again.  It only reads ``perfbench/``.
"""

import importlib.util
from pathlib import Path

from gmepw import epw, fibrations, linalg
from gmepw.fixtures import fivefold_lagrangian
from gmepw.linalg import Subspace, unit_vector

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def wrapped():
    return fibrations.fibration1_fiber, fibrations._induced_quadric, vars(linalg.Matrix)["rref"]


def test_tracer_installs_spans_the_fiber_paths_and_uninstalls():
    spans = load_spans()
    originals = wrapped()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(w is not o for w, o in zip(wrapped(), originals))
        ld = fivefold_lagrangian()
        fibrations.fibration1_fiber(ld, unit_vector(6, 0))
        fibrations.fibration2_fiber(ld, Subspace.from_rows(6, [unit_vector(6, i) for i in (0, 1, 3)]))
    finally:
        tracer.uninstall()
    assert wrapped() == originals
    paths = spans.REDUCTION_PATH + spans.CLOSED_FORM_PATH
    for i, name in enumerate(tracer.names):
        if name in paths:
            assert tracer.names[tracer.parents[i]] in spans.FIBER_SPANS, name
    children = {tracer.names[i] for i, p in enumerate(tracer.parents) if p >= 0}
    assert set(spans.REDUCTION_PATH) <= children
    metrics = tracer.layer_metrics(0.0, 1.0)
    assert metrics["quadrics.isotropic_reduce.calls"] == 2
    assert metrics["fibrations.reduction_path_s"] > 0 and metrics["fibrations.closed_form_path_s"] > 0


def test_certificates_interpolate_once_without_a_gcd():
    # one chart determinant per certificate: one interpolation directly under
    # the certificate span, no gcd, and every sample point checked.  The
    # samples are ranked as one pencil, not by y_stratum/z_stratum spans, so
    # the tracer's epw.sample_check_ratio (checked samples over those spans)
    # reads 0; each certificate reports its 20 checks itself
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        a = fivefold_lagrangian().a
        certs = [epw.stratum_poly_on_line(a, [1, 2, 0, 1, -1, 3], [0, 1, 1, -2, 1, 1], "y", seed=5)]
        rows = ([1, 0, 0, 0, 1, 0], [0, 1, 0, -1, 0, 2], [0, 0, 1, 1, 2, 0])
        certs.append(epw.stratum_poly_on_line(a, rows, [1, 1, 0, 0, 0, 1], "z", seed=6))
    finally:
        tracer.uninstall()
    interpolations = [i for i, name in enumerate(tracer.names) if name == "polynomials.interpolate"]
    assert len(interpolations) == tracer.names.count(spans.CERTIFICATE) == 2
    assert all(tracer.names[tracer.parents[i]] == spans.CERTIFICATE for i in interpolations)
    metrics = tracer.layer_metrics(0.0, 1.0)
    assert metrics["polynomials.poly_gcd.calls"] == 0
    assert metrics["epw.compressions_tried"] == 2
    assert [cert.sample_consistency for cert in certs] == [20, 20]
