"""Command-line front end: verbs, outputs, exit codes, determinism."""

import json
import sys

import numpy as np
import pytest

from nyscat import cli

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def solve_config(outdir, n=6, formulation="efie-closed", extra=""):
    return f"""
[geometry]
kind = sphere
diameter = 2.0

[run]
wavelength = 1.0
n = {n}
formulation = {formulation}
threads = 1

[solver]
tol = 1e-5

[output]
directory = {outdir}
rcs_phi_deg = 0.0
rcs_points = 19
{extra}
"""


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def test_solve_writes_tables_and_manifest(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, solve_config(out))
    assert cli.main(["solve", cfg]) == 0
    header, rows = read_rows(out / "density.csv")
    assert header == ["patch", "u", "v", "x", "y", "z",
                      "re_jx", "im_jx", "re_jy", "im_jy", "re_jz", "im_jz",
                      "j_mag"]
    assert len(rows) == 6 * 36
    # nodal positions land on the sphere and magnitudes are consistent
    xyz = np.array([[float(c) for c in r[3:6]] for r in rows])
    assert np.allclose(np.linalg.norm(xyz, axis=1), 1.0, atol=1e-12)
    comp = np.array([[float(c) for c in r[6:12]] for r in rows])
    jvec = comp[:, 0::2] + 1j * comp[:, 1::2]
    mags = np.array([float(r[12]) for r in rows])
    assert np.allclose(np.linalg.norm(jvec, axis=1), mags, rtol=1e-12)

    header, rows = read_rows(out / "rcs.csv")
    assert header == ["theta_deg", "rcs_dbsm"]
    assert len(rows) == 19
    assert float(rows[0][0]) == 0.0 and float(rows[-1][0]) == 180.0

    man = json.loads((out / "manifest.json").read_text())
    assert man["converged"] is True
    assert man["iterations"] > 0
    assert man["final_residual"] < 1e-5
    assert man["n_patches"] == 6
    # closed grid: unknowns are deduplicated, two components per point group
    assert man["n_unknowns"] == man["n_unique"] == 2 * (6 * 36 - 12 * 6 + 8)
    assert man["config"]["n"] == 6
    assert man["config"]["formulation"] == "efie-closed"
    timing = json.loads((out / "timing.json").read_text())
    assert timing["build_seconds"] > 0 and timing["solve_seconds"] > 0
    # the solve's time outside the operator's matvecs
    assert 0 < timing["orth_seconds"] < timing["solve_seconds"]


def test_solve_reruns_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg1 = write_config(tmp_path, solve_config(out1), "a.ini")
    cfg2 = write_config(tmp_path, solve_config(out2), "b.ini")
    assert cli.main(["solve", cfg1]) == 0
    assert cli.main(["solve", cfg2]) == 0
    for name in ("density.csv", "rcs.csv", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # timings are volatile: they stay in timing.json, out of the manifest
    assert "orth_seconds" in json.loads((out1 / "timing.json").read_text())
    assert "orth_seconds" not in (out1 / "manifest.json").read_text()


def test_solve_mfie_open_grid(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, solve_config(out, n=5, formulation="mfie"))
    assert cli.main(["solve", cfg]) == 0
    _, rows = read_rows(out / "density.csv")
    assert len(rows) == 6 * 25
    man = json.loads((out / "manifest.json").read_text())
    assert man["n_unknowns"] == 2 * 6 * 25  # raw per-patch unknowns
    assert man["n_unique"] is None  # no point sharing on the open grid
    assert (out / "rcs.csv").exists()


def test_solver_budget_exhaustion_exits_1_but_writes(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, f"""
[geometry]
kind = sphere

[run]
n = 5

[solver]
tol = 1e-12
restart = 3
max_iter = 3

[output]
directory = {out}
""")
    assert cli.main(["solve", cfg]) == 1
    man = json.loads((out / "manifest.json").read_text())
    assert man["converged"] is False
    assert man["iterations"] == 3


def test_converge_sweep_contrast(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, f"""
[geometry]
kind = sphere

[run]
wavelength = 1.0
threads = 1

[solver]
tol = 1e-3
restart = 3000
max_iter = 3000

[output]
directory = {out}

[sweep]
n_values = 6 8
formulations = efie-closed efie-open
""")
    assert cli.main(["converge", cfg]) == 0
    header, rows = read_rows(out / "convergence.csv")
    assert header == ["formulation", "n", "forward_error", "iterations",
                      "solution_error"]
    table = {(r[0], int(r[1])): (float(r[2]), int(r[3]), float(r[4]))
             for r in rows}
    assert len(table) == 4
    for form in ("efie-closed", "efie-open"):
        # refinement shrinks the forward-map defect of the series current
        assert table[(form, 8)][0] < table[(form, 6)][0]
    for n in (6, 8):
        # continuity enforcement pays off in solver work
        assert table[("efie-closed", n)][1] < table[("efie-open", n)][1]
    assert all(np.isfinite(v) for row in table.values() for v in row)


def test_converge_with_reference_file(tmp_path):
    out = tmp_path / "out"
    ref = tmp_path / "ref.npz"
    rng = np.random.default_rng(5)
    size = 2 * 6 * 25
    np.savez(ref, n5=rng.standard_normal(size) + 1j * rng.standard_normal(size))
    cfg = write_config(tmp_path, f"""
[geometry]
kind = sphere

[run]
formulation = efie-open

[solver]
tol = 1e-2
restart = 2000
max_iter = 2000

[output]
directory = {out}

[sweep]
n_values = 5
formulations = efie-open
reference = {ref}
""")
    assert cli.main(["converge", cfg]) == 0
    _, rows = read_rows(out / "convergence.csv")
    assert len(rows) == 1
    # a random reference is far from the solution, but both columns are real
    assert float(rows[0][2]) > 1e-2
    assert float(rows[0][4]) > 1e-2


def test_converge_reference_missing_key_exits_2(tmp_path, capsys):
    ref = tmp_path / "ref.npz"
    np.savez(ref, n6=np.zeros(4, dtype=complex))
    cfg = write_config(tmp_path, f"""
[geometry]
kind = sphere

[run]
formulation = efie-open

[output]
directory = {tmp_path / 'out'}

[sweep]
n_values = 5
formulations = efie-open
reference = {ref}
""")
    assert cli.main(["converge", cfg]) == 2
    assert "sweep.reference" in capsys.readouterr().err


def test_export_roundtrip_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg1 = write_config(tmp_path, f"""
[geometry]
kind = rounded-cube
edge = 1.0
radius = 0.01

[output]
directory = {out1}
export_n = 20
""", "a.ini")
    assert cli.main(["export", cfg1]) == 0
    text = (out1 / "surface.txt").read_text()
    assert text.startswith("PATCHSURF v1")
    blocks = [ln for ln in text.split("\n") if ln.startswith("patch ")]
    assert len(blocks) == 54  # 6 faces + 24 edge halves + 24 corner thirds
    assert all(" 20 20" in b for b in blocks)

    cfg2 = write_config(tmp_path, f"""
[geometry]
kind = file
path = {out1 / 'surface.txt'}

[output]
directory = {out2}
export_n = 20
""", "b.ini")
    assert cli.main(["export", cfg2]) == 0
    assert (out1 / "surface.txt").read_bytes() == (out2 / "surface.txt").read_bytes()


@pytest.mark.parametrize("snippet,field", [
    ("[geometry]\nkind = torus\n", "geometry.kind"),
    ("[geometry]\nkind = file\n", "geometry.path"),
    ("[geometry]\nkind = sphere\n\n[run]\nn = 3\n", "run.n"),
    ("[geometry]\nkind = sphere\n\n[run]\nformulation = rwg\n",
     "run.formulation"),
    ("[geometry]\nkind = sphere\n\n[solver]\ntol = 2.0\n", "solver.tol"),
    ("[geometry]\nkind = sphere\n\n[excitation]\npolarization = 1 0\n",
     "excitation.polarization"),
    ("[geometry]\nkind = sphere\n\n[run]\nthreads = 0\n", "run.threads"),
], ids=["kind", "path", "n", "formulation", "tol", "vector", "threads"])
def test_config_errors_exit_2_and_name_the_field(tmp_path, capsys,
                                                 snippet, field):
    cfg = write_config(tmp_path, snippet)
    assert cli.main(["solve", cfg]) == 2
    assert field in capsys.readouterr().err


def test_empty_sweep_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "[geometry]\nkind = sphere\n")
    assert cli.main(["converge", cfg]) == 2
    assert "sweep.n_values" in capsys.readouterr().err


def test_nonsphere_sweep_needs_reference(tmp_path, capsys):
    cfg = write_config(tmp_path, """
[geometry]
kind = rounded-cube

[sweep]
n_values = 6
""")
    assert cli.main(["converge", cfg]) == 2
    assert "sweep.reference" in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path, capsys):
    assert cli.main(["solve", str(tmp_path / "nope.ini")]) == 2
    assert "config" in capsys.readouterr().err


def test_unwritable_directory_exits_3(tmp_path):
    cfg = write_config(tmp_path, """
[geometry]
kind = sphere

[output]
directory = /proc/nonexistent/out
""")
    assert cli.main(["export", cfg]) == 3


def test_threads_without_threadpoolctl_warns_once(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import fails
    outputs = []
    for name, threads in (("a", "threads = 1"), ("b", "")):
        out = tmp_path / name
        cfg = write_config(tmp_path, f"""
[geometry]
kind = sphere

[run]
{threads}

[output]
directory = {out}
export_n = 4
""", f"{name}.ini")
        assert cli.main(["export", cfg]) == 0
        outputs.append((out / "surface.txt").read_bytes())
        captured = capsys.readouterr()
        assert captured.out == ""
        if threads:
            assert captured.err.count("warning:") == 1
            assert "run.threads" in captured.err
        else:
            assert captured.err == ""
    assert outputs[0] == outputs[1]
