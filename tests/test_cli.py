import functools

import pytest

from finiteshape import cli, invariants
from finiteshape.cli import main


def run_cli(args):
    return main(list(args))


def test_generate_circle_row_count(tmp_path):
    out = tmp_path / "c.csv"
    assert run_cli(["generate", "--space", "circle", "--n", "256", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 257  # header + rows


def test_generate_warsaw_row_count(tmp_path):
    out = tmp_path / "w.csv"
    assert run_cli(["generate", "--space", "warsaw", "--n", "2000", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2001


def test_generate_zero_count_usage_error(tmp_path):
    out = tmp_path / "x.csv"
    assert run_cli(["generate", "--space", "circle", "--n", "0", "--out", str(out)]) == 2
    assert not out.exists()


def test_run_singleton_all_pass(tmp_path):
    coords = tmp_path / "one.csv"
    coords.write_text("id,x,y\n0,0.0,0.0\n")
    outdir = tmp_path / "out"
    code = run_cli([
        "run", "--input", str(coords), "--epsilon1", "1.0",
        "--outdir", str(outdir),
    ])
    assert code == 0
    homology = (outdir / "homology.csv").read_text().splitlines()
    assert homology[0] == "n,b0,b1,rank0_to_prev,rank1_to_prev"
    for line in homology[1:]:
        n, b0, b1 = line.split(",")[:3]
        assert (b0, b1) == ("1", "0")
    assert (outdir / "sequence.csv").exists()
    assert (outdir / "summary.txt").read_text().splitlines()[0] == "verdict = pass"


def test_run_circle_stabilized(tmp_path, capsys):
    outdir = tmp_path / "out"
    code = run_cli(["run", "--space", "circle", "--n", "64", "--outdir", str(outdir)])
    assert code == 0
    out = capsys.readouterr().out
    assert "stabilized ranks" in out
    assert "all checks passed" in out


def test_run_bad_safety_fails_before_work(tmp_path):
    outdir = tmp_path / "nope"
    code = run_cli([
        "run", "--space", "circle", "--n", "16", "--safety", "1.2",
        "--outdir", str(outdir),
    ])
    assert code == 2
    assert not (outdir / "summary.txt").exists()


def test_verify_pass_lines(tmp_path, capsys):
    code = run_cli(["verify", "--space", "interval", "--n", "50", "--depth", "3"])
    assert code == 0
    out = capsys.readouterr().out
    for name in ("sequence-inequalities", "distance-bounds", "identity-convergence",
                 "square-commutes", "monotone-bondings"):
        assert f"PASS {name}" in out
    assert "FAIL" not in out


def test_verify_hand_edited_sequence_fails(tmp_path, capsys):
    coords = tmp_path / "g.csv"
    outdir = tmp_path / "out"
    assert run_cli(["generate", "--space", "interval", "--n", "50", "--out", str(coords)]) == 0
    assert run_cli(["run", "--input", str(coords), "--outdir", str(outdir), "--depth", "3"]) == 0
    seq_file = outdir / "sequence.txt"
    lines = seq_file.read_text().splitlines()
    # inflate epsilon_2 so that epsilon_2 < (epsilon_1 - gamma_1)/2 is violated
    edited = []
    for line in lines:
        if line.startswith("level n=2"):
            parts = line.split()
            parts[2] = "epsilon=0.49"
            line = " ".join(parts)
        edited.append(line)
    seq_file.write_text("\n".join(edited) + "\n")
    capsys.readouterr()
    code = run_cli(["verify", "--input", str(coords), "--sequence", str(seq_file)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL sequence-inequalities" in out
    assert "epsilon_2 < (epsilon_1 - gamma_1)/2" in out


def test_verify_missing_input_io_error(tmp_path):
    code = run_cli(["verify", "--input", str(tmp_path / "missing.csv")])
    assert code == 2


def test_run_deterministic_exports(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for outdir in (out1, out2):
        assert run_cli(["run", "--space", "cantor", "--cantor-depth", "3",
                        "--outdir", str(outdir), "--seed", "5"]) == 0
    for name in ("sequence.csv", "homology.csv", "ground.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_config_file_with_flag_override(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("space = circle\nn = 32\ndepth = 3\noutdir = %s\n" % (tmp_path / "o1"))
    code = run_cli(["run", "--config", str(cfgfile), "--outdir", str(tmp_path / "o2")])
    assert code == 0
    assert (tmp_path / "o2" / "summary.txt").exists()  # flag wins
    assert not (tmp_path / "o1").exists()


def test_run_from_distance_matrix(tmp_path, capsys):
    # hexagon path metric: a discrete circle given purely by distances
    import numpy as np

    n = 6
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            k = abs(i - j)
            D[i, j] = min(k, n - k)
    path = tmp_path / "hex.csv"
    np.savetxt(path, D, delimiter=",")
    outdir = tmp_path / "out"
    code = run_cli(["run", "--input", str(path), "--format", "distmatrix_csv",
                    "--outdir", str(outdir), "--depth", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "stabilized ranks" in out


def test_export_poset(tmp_path):
    base = tmp_path / "poset"
    code = run_cli(["export-poset", "--space", "circle", "--n", "16", "--depth", "2",
                    "--level", "1", "--out", str(base)])
    assert code == 0
    assert (tmp_path / "poset.dot").read_text().startswith("digraph")
    assert (tmp_path / "poset.csv").exists()


def test_export_complex_both_kinds(tmp_path):
    for kind in ("order", "rips"):
        base = tmp_path / f"cx_{kind}"
        code = run_cli(["export-complex", "--space", "circle", "--n", "64", "--depth", "2",
                        "--level", "2", "--complex", kind, "--out", str(base)])
        assert code == 0
        assert (tmp_path / f"cx_{kind}.off").exists()
        assert (tmp_path / f"cx_{kind}.csv").exists()


def test_run_shape_stage_failure_is_a_fail_verdict(tmp_path, capsys, monkeypatch):
    # circle-64 level 1 alone has more than 40 poset elements
    monkeypatch.setattr(cli, "shape_report", functools.partial(invariants.shape_report, max_elements=40))
    outdir = tmp_path / "out"
    code = run_cli(["run", "--space", "circle", "--n", "64", "--depth", "3", "--outdir", str(outdir)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL homology: element budget 40 exceeded" in out
    assert "CHECKS FAILED" in out
    assert (outdir / "summary.txt").read_text().splitlines()[0] == "verdict = fail"
    assert not (outdir / "homology.csv").exists()


def _edit_level_line(path, n, edit):
    lines = []
    for line in path.read_text().splitlines():
        if line.startswith(f"level n={n} "):
            fields = dict(part.split("=", 1) for part in line[len("level "):].split())
            edit(fields)
            line = "level " + " ".join(f"{k}={v}" for k, v in fields.items())
        lines.append(line)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("edit,reason", [
    (lambda f: f.update(net=f["net"] + ",99999"), "net index 99999 lies outside [0, 64)"),
    (lambda f: f.update(net=",".join(reversed(f["net"].split(",")))), "net is not sorted and duplicate-free"),
    (lambda f: f.update(net=f["net"] + "," + f["net"].split(",")[-1]), "net is not sorted and duplicate-free"),
    (lambda f: f.update(n="3"), "level n=3 where n=2 was expected"),
    (lambda f: f.pop("epsilon"), "cannot parse"),
    (lambda f: f.update(gamma="0.0"), "stores gamma=0.0, but its net covers the ground within gamma="),
], ids=["index-out-of-range", "unsorted", "duplicate", "level-gap", "missing-field", "false-gamma"])
def test_verify_malformed_stored_sequence_fails(tmp_path, capsys, edit, reason):
    coords = tmp_path / "g.csv"
    outdir = tmp_path / "out"
    assert run_cli(["generate", "--space", "circle", "--n", "64", "--out", str(coords)]) == 0
    assert run_cli(["run", "--input", str(coords), "--outdir", str(outdir), "--depth", "3",
                    "--skip-homology"]) == 0
    seq_file = outdir / "sequence.txt"
    _edit_level_line(seq_file, 2, edit)
    capsys.readouterr()
    code = run_cli(["verify", "--input", str(coords), "--sequence", str(seq_file)])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("FAIL sequence-format: ")
    assert reason in out


def test_run_non_finite_coordinate_is_input_error(tmp_path, capsys):
    coords = tmp_path / "g.csv"
    coords.write_text("id,x,y\n0,0.0,0.0\n1,nan,1.0\n2,1.0,0.0\n")
    code = run_cli(["run", "--input", str(coords), "--outdir", str(tmp_path / "out")])
    assert code == 2
    assert "non-finite coordinate in row 1" in capsys.readouterr().err
