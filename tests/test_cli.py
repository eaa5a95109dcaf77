import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from finiteshape import cli, hyperspace, metric
from finiteshape.cli import RunConfig, main
from finiteshape.metric import MetricGround
from reference_loops import dense


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


def _built_depth_and_ranks(capsys, args):
    """(exit code, built depth, stabilized ranks, stated density) of one ``run``."""
    capsys.readouterr()
    code = run_cli(["run", *args])
    out = capsys.readouterr().out
    built = re.search(r"^depth: requested \d+, built (\d+)$", out, re.M).group(1)
    ranks = re.search(r"stabilized ranks \(window \d+\): (\(.*\))$", out, re.M).group(1)
    return code, int(built), ranks, float(re.search(r"density (\S+) ", out).group(1))


@pytest.mark.parametrize("kind, n, depth", [("circle", 256, 4), ("warsaw_circle", 2000, 4), ("circle", 2000, 6)])
def test_run_is_invariant_under_input_transforms(tmp_path, capsys, kind, n, depth):
    # the farthest-point pass reads windows along the axis of widest spread,
    # so reordering, swapping axes, scaling and large offsets must change no result
    generated = tmp_path / "g.csv"
    assert run_cli(["generate", "--space", kind, "--n", str(n), "--out", str(generated)]) == 0
    code, built, ranks, density = _built_depth_and_ranks(
        capsys, ["--space", kind, "--n", str(n), "--depth", str(depth), "--outdir", str(tmp_path / "out")])
    assert (code, built, ranks) == (0, depth, "(1, 1)")
    points = np.loadtxt(generated, delimiter=",", skiprows=1)[:, 1:]
    transforms = {
        "as written": (points, density),
        "permuted": (points[np.random.default_rng(0).permutation(n)], density),
        "reversed": (points[::-1], density),
        "axes swapped": (points[:, ::-1], density),
        "scaled by 3": (3.0 * points, 3.0 * density),
        "shifted": (points + [1e6, -1e6], density),
    }
    for name, (moved, stated) in transforms.items():
        path = tmp_path / "moved.csv"
        path.write_text("id,x,y\n" + "".join(f"{i},{x!r},{y!r}\n" for i, (x, y) in enumerate(moved.tolist())))
        got = _built_depth_and_ranks(capsys, ["--input", str(path), "--density", repr(stated), "--depth", str(depth),
                                               "--outdir", str(tmp_path / "out")])
        assert got[:3] == (0, built, ranks), name


def test_run_times_itself_with_the_monotonic_clock(tmp_path, capsys, monkeypatch):
    # a wall clock may jump; the summary and closing line read perf_counter only
    ticks = iter([10.0, 12.5, 13.25])
    monkeypatch.setattr(cli, "time", type("Clock", (), {"perf_counter": staticmethod(lambda: next(ticks))}))
    assert run_cli(["run", "--space", "circle", "--n", "16", "--depth", "2", "--outdir", str(tmp_path)]) == 0
    assert "elapsed_seconds = 2.500\n" in (tmp_path / "summary.txt").read_text()
    assert capsys.readouterr().out.endswith("all checks passed (3.25s)\n")


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
                        "--outdir", str(outdir)]) == 0
    for name in ("sequence.csv", "homology.csv", "ground.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_config_file_with_flag_override(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("space = circle\nn = 32\ndepth = 3\noutdir = %s\n" % (tmp_path / "o1"))
    code = run_cli(["run", "--config", str(cfgfile), "--outdir", str(tmp_path / "o2")])
    assert code == 0
    assert (tmp_path / "o2" / "summary.txt").exists()  # flag wins
    assert not (tmp_path / "o1").exists()
    out = capsys.readouterr().out
    assert "depth: requested 3, " in out  # the file's depth, not the default 4


@pytest.mark.parametrize("line, reason", [
    ("colour = blue", "unknown key 'colour'"),
    ("depth 3", "expected key = value"),
    ("skip_bounds = true", "unknown key 'skip_bounds'"),
    ("maxdim = 2", "unknown key 'maxdim'"),
    ("tie_tol = 1e-9", "unknown key 'tie_tol'"),
    ("depth = 2.5", "depth = '2.5' is not a valid int"),
    ("safety = abc", "safety = 'abc' is not a valid float"),
], ids=["unknown-key", "no-equals", "stale-skip-key", "stale-maxdim-key", "stale-tie-tol-key", "non-integer",
        "non-number"])
def test_config_file_bad_line_exits_2(tmp_path, capsys, line, reason):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"space = circle\n{line}\n")
    assert run_cli(["verify", "--config", str(cfgfile)]) == 2
    assert f"error: {cfgfile}:2: {reason}" in capsys.readouterr().err


def test_generate_config_honours_n(tmp_path):
    cfgfile = tmp_path / "gen.cfg"
    cfgfile.write_text("space = circle\nn = 40\n")
    out = tmp_path / "c.csv"
    assert run_cli(["generate", "--config", str(cfgfile), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 41


# every RunConfig field away from its default; together they pass validation
NON_DEFAULT_CONFIG = RunConfig(
    space="interval", n=17, radius=2.0, separation=3.0, length=4.0, cantor_depth=2,
    input="in.csv", format="distmatrix_csv", density=0.5, epsilon1=0.7, depth=3, safety=0.8,
    window=3, outdir="elsewhere",
)


def test_every_config_field_is_a_flag_and_a_config_key_of_its_type():
    parser = cli.build_parser()
    names = [f.name for f in dataclasses.fields(RunConfig)]
    assert list(cli._CONFIG_KEYS) == names
    for name in names:
        value = getattr(NON_DEFAULT_CONFIG, name)
        assert value != getattr(RunConfig(), name)
        assert cli._CONFIG_KEYS[name] is type(value)
        flag = ["--" + name.replace("_", "-"), str(value)]
        for command in ("run", "verify"):
            got = getattr(parser.parse_args([command, *flag]), name)
            assert (got, type(got)) == (value, type(value))


def test_unset_flags_take_the_run_config_defaults():
    args = cli.build_parser().parse_args(["run", "--space", "circle"])
    assert cli._config_from_args(args) == RunConfig(space="circle")


@pytest.mark.parametrize("command", ["run", "verify"])
def test_config_file_sets_every_field_and_a_flag_overrides_it(tmp_path, monkeypatch, command):
    seen = []
    monkeypatch.setattr(cli, f"cmd_{command}", lambda cfg, args: seen.append(cfg) or 0)
    cfgfile = tmp_path / "all.cfg"
    lines = (f"{name} = {getattr(NON_DEFAULT_CONFIG, name)}\n" for name in cli._CONFIG_KEYS)
    cfgfile.write_text("".join(lines))
    assert main([command, "--config", str(cfgfile)]) == 0
    assert main([command, "--config", str(cfgfile), "--depth", "5"]) == 0
    assert seen == [NON_DEFAULT_CONFIG, dataclasses.replace(NON_DEFAULT_CONFIG, depth=5)]


@pytest.mark.parametrize("command", ["generate", "run", "verify"])
def test_a_non_finite_warsaw_length_is_an_error_line(command, tmp_path, capsys, monkeypatch):
    table = metric._warsaw_graph_table

    def nan_length(x_min, grid):
        u, s = table(x_min, grid)
        s[-1] = math.nan
        return u, s

    monkeypatch.setattr(metric, "_warsaw_graph_table", nan_length)
    target = {"generate": ["--out", str(tmp_path / "w.csv")], "run": ["--outdir", str(tmp_path / "out")], "verify": []}
    assert run_cli([command, "--space", "warsaw", "--n", "300", *target[command]]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: warsaw_circle n=300: non-finite arc length at cutoff \S+ \(last step nan\)\n", err)


def test_verify_one_level_tower_passes(capsys):
    # a 12-point circle stops after level 1: the pair clauses hold vacuously
    assert run_cli(["verify", "--space", "circle", "--n", "12", "--depth", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("depth: requested 3, built 1, stopped: epsilon_2 = ")
    assert out.splitlines()[0].endswith("; built 1 of 3 requested levels")
    assert "PASS identity-convergence: 2eps_1->n0=1/1\n" in out  # one level only
    assert "PASS distance-bounds: no pairs" in out
    assert "PASS square-commutes: no pairs" in out
    assert "FAIL" not in out


def test_verify_reads_the_depth_line_of_a_stored_sequence(tmp_path, capsys):
    # the requested depth and stop reason come from the stored file, not from --depth
    outdir = tmp_path / "out"
    assert run_cli(["run", "--space", "circle", "--n", "12", "--depth", "3", "--outdir", str(outdir)]) == 0
    depth_line = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("depth: "))
    assert depth_line.startswith("depth: requested 3, built 1, stopped: ")
    assert run_cli(["verify", "--space", "circle", "--n", "12", "--depth", "5",
                    "--sequence", str(outdir / "sequence.txt")]) == 0
    assert capsys.readouterr().out.splitlines()[0] == depth_line


def test_run_one_level_tower_passes(tmp_path, capsys):
    outdir = tmp_path / "out"
    assert run_cli(["run", "--space", "circle", "--depth", "1", "--outdir", str(outdir)]) == 0
    out = capsys.readouterr().out
    assert "depth: requested 1, built 1\n" in out
    assert "PASS distance-bounds: no pairs" in out
    assert "homology: skipped (1 level built, needs 2)" in out
    summary = (outdir / "summary.txt").read_text().splitlines()
    assert summary[0] == "verdict = pass"
    assert "depth = requested 1, built 1" in summary
    assert "homology = skipped" in summary


def test_run_reads_nearest_tables_off_the_pass_and_stored_sequences_compute_them(tmp_path, monkeypatch, capsys):
    # built and stored towers alike compute each level's nearest-point
    # table once, with the same verdicts
    original, calls = hyperspace.nearest_sets, []

    def counting_nearest_sets(*args):
        calls.append(args[0].n)
        return original(*args)

    monkeypatch.setattr(hyperspace, "nearest_sets", counting_nearest_sets)
    space = ["--space", "warsaw", "--n", "300", "--depth", "3"]
    outdir = tmp_path / "out"
    assert run_cli(["run", *space, "--outdir", str(outdir)]) == 0
    depth = len((outdir / "sequence.csv").read_text().splitlines()) - 1
    assert depth >= 2
    assert len(calls) == depth

    def verdicts():
        return [line for line in capsys.readouterr().out.splitlines() if line.startswith(("PASS ", "FAIL "))]

    capsys.readouterr()
    calls.clear()
    assert run_cli(["verify", *space]) == 0
    built = verdicts()
    assert len(calls) == depth
    calls.clear()
    assert run_cli(["verify", *space, "--sequence", str(outdir / "sequence.txt")]) == 0
    stored = verdicts()
    assert len(calls) == depth
    assert stored == built and len(built) >= 4


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


@pytest.mark.parametrize("command", ["export-poset", "export-complex"])
def test_exports_compute_no_nearest_sets(tmp_path, monkeypatch, command):
    original, calls = hyperspace.nearest_sets, []

    def counting_nearest_sets(*args):
        calls.append(args[0].n)
        return original(*args)

    monkeypatch.setattr(hyperspace, "nearest_sets", counting_nearest_sets)
    code = run_cli([command, "--space", "circle", "--n", "64", "--depth", "3",
                    "--level", "2", "--out", str(tmp_path / "level2")])
    assert code == 0
    assert len(calls) == 0


def test_export_complex_both_kinds(tmp_path):
    for kind in ("order", "rips"):
        base = tmp_path / f"cx_{kind}"
        code = run_cli(["export-complex", "--space", "circle", "--n", "64", "--depth", "2",
                        "--level", "2", "--complex", kind, "--out", str(base)])
        assert code == 0
        assert (tmp_path / f"cx_{kind}.off").exists()
        assert (tmp_path / f"cx_{kind}.csv").exists()


def test_run_shape_stage_failure_is_a_fail_verdict(tmp_path, capsys, monkeypatch):
    # circle-64 level 2 alone has more than 40 vertices and edges
    monkeypatch.setattr(hyperspace, "MAX_ELEMENTS", 40)
    outdir = tmp_path / "out"
    code = run_cli(["run", "--space", "circle", "--n", "64", "--depth", "3", "--outdir", str(outdir)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL homology: element budget 40 exceeded" in out
    assert "CHECKS FAILED" in out
    assert (outdir / "summary.txt").read_text().splitlines()[0] == "verdict = fail"
    assert not (outdir / "homology.csv").exists()


@pytest.mark.parametrize("command", ["export-poset", "export-complex"])
def test_export_over_the_element_budget_exits_2(tmp_path, capsys, monkeypatch, command):
    # circle-64 level 1 has more than 40 elements up to size 3
    monkeypatch.setattr(hyperspace, "MAX_ELEMENTS", 40)
    code = run_cli([command, "--space", "circle", "--n", "64", "--depth", "3",
                    "--level", "1", "--out", str(tmp_path / "level1")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: hyperspace enumeration: element budget 40 exceeded")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["run", "verify"])
def test_cap_is_no_option_of_run_or_verify(tmp_path, capsys, command):
    args = [command, "--space", "circle", "--n", "32", "--depth", "3", "--outdir", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        run_cli([*args, "--cap", "4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap 4" in capsys.readouterr().err
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("depth = 3\ncap = 4\n")
    assert run_cli([*args, "--config", str(cfgfile)]) == 2
    assert f"{cfgfile}:2: unknown key 'cap'" in capsys.readouterr().err


# homology is computed through degree 1 only, so no flag asks for a higher degree (--maxdim)
@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("flag", ["--skip-bounds", "--skip-identity", "--skip-diagram", "--skip-homology", "--maxdim"])
def test_every_check_runs_and_no_flag_skips_one(tmp_path, capsys, command, flag):
    args = [command, "--space", "circle", "--n", "32", "--depth", "3", "--outdir", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        run_cli([*args, flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


# the tie tolerance is the constant hyperspace.TIE_TOL, not a setting
@pytest.mark.parametrize("command", ["run", "verify"])
def test_tie_tolerance_is_no_option(tmp_path, capsys, command):
    args = [command, "--space", "circle", "--n", "32", "--outdir", str(tmp_path / "out"), "--tie-tol", "1e-6"]
    with pytest.raises(SystemExit) as exc:
        run_cli(args)
    assert exc.value.code == 2
    assert "unrecognized arguments: --tie-tol 1e-6" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["export-poset", "export-complex"])
def test_export_cap_below_the_triangles_exits_2(tmp_path, capsys, command):
    base = tmp_path / "level1"
    assert run_cli([command, "--space", "circle", "--n", "16", "--depth", "2",
                    "--level", "1", "--cap", "2", "--out", str(base)]) == 2
    assert capsys.readouterr().err == "error: cardinality cap 2 too small: the complexes need cap 3 (triangles)\n"
    assert not list(tmp_path.iterdir())


def test_export_poset_cap_sets_the_largest_element(tmp_path):
    base = tmp_path / "poset"
    assert run_cli(["export-poset", "--space", "circle", "--n", "16", "--depth", "2",
                    "--level", "1", "--cap", "4", "--out", str(base)]) == 0
    sizes = {int(line.split(",")[1]) for line in (tmp_path / "poset.csv").read_text().splitlines()[1:]}
    assert sizes == {1, 2, 3, 4}


def test_export_complex_rips_takes_no_cap(tmp_path, capsys):
    args = ["export-complex", "--space", "circle", "--n", "64", "--depth", "2", "--level", "2",
            "--complex", "rips", "--out", str(tmp_path / "level2")]
    assert run_cli([*args, "--cap", "5"]) == 2
    assert capsys.readouterr().err == "error: --cap applies only to the order complex (--complex order)\n"
    assert not (tmp_path / "level2.off").exists()
    assert run_cli(args) == 0


def test_pipeline_never_forms_image_tuples(tmp_path, monkeypatch, capsys):
    # every check reads the padded tables; MultiMap.images is formed only on
    # demand, for tests and the benchmark tracer.  The monotonicity oracle and
    # the covering pairs are not read either: a bonding map that passes its
    # diameter check is monotone
    warsaw = ["--space", "warsaw", "--n", "500", "--depth", "4"]

    def outputs(tag):
        outdir = tmp_path / tag
        got = []
        for argv in (["run", *warsaw, "--outdir", str(outdir)],
                     ["verify", "--space", "circle", "--n", "256", "--depth", "4"],
                     ["verify", *warsaw, "--sequence", str(tmp_path / "plain" / "sequence.txt")]):
            assert run_cli(argv) == 0
            got.append([line for line in capsys.readouterr().out.splitlines() if line.startswith(("PASS ", "FAIL "))])
        return got, (outdir / "homology.csv").read_bytes(), (outdir / "witnesses.txt").read_bytes()

    capsys.readouterr()
    plain = outputs("plain")

    def no_tuples(mm):
        raise AssertionError("MultiMap.images was read")

    def never(name):
        def called(*args, **kwargs):
            raise AssertionError(f"{name} was called")
        return called

    monkeypatch.setattr(hyperspace.MultiMap, "images", property(no_tuples))
    monkeypatch.setattr(hyperspace, "is_continuous", never("is_continuous"))
    monkeypatch.setattr(hyperspace.HyperLevel, "covering_pairs", never("HyperLevel.covering_pairs"))
    assert outputs("patched") == plain
    assert all(plain[0])


def _edit_level_line(path, n, edit):
    lines = []
    for line in path.read_text().splitlines():
        if line.startswith(f"level n={n} "):
            fields = dict(part.split("=", 1) for part in line[len("level "):].split())
            edit(fields)
            line = "level " + " ".join(f"{k}={v}" for k, v in fields.items())
        lines.append(line)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("n,edit,reason", [
    (2, lambda f: f.update(net=f["net"] + ",99999"), "net index 99999 lies outside [0, 64)"),
    (2, lambda f: f.update(net=",".join(reversed(f["net"].split(",")))), "net is not sorted and duplicate-free"),
    (2, lambda f: f.update(net=f["net"] + "," + f["net"].split(",")[-1]), "net is not sorted and duplicate-free"),
    (2, lambda f: f.update(n="3"), "level n=3 where n=2 was expected"),
    (2, lambda f: f.pop("epsilon"), "cannot parse"),
    (2, lambda f: f.update(gamma="0.0"), "stores gamma=0.0, but its net covers the ground within gamma="),
    # an infinite scale passed every verdict, and a NaN one passed the distance bounds against NaN bounds
    (1, lambda f: f.update(epsilon="inf"), "sequence.txt:5: level 1 epsilon=inf is not finite and positive"),
    (2, lambda f: f.update(epsilon="nan"), "sequence.txt:6: level 2 epsilon=nan is not finite and positive"),
], ids=["index-out-of-range", "unsorted", "duplicate", "level-gap", "missing-field", "false-gamma",
        "epsilon-inf-level-1", "epsilon-nan-level-2"])
def test_verify_malformed_stored_sequence_fails(tmp_path, capsys, n, edit, reason):
    coords, seq_file = _stored_circle64(tmp_path)
    _edit_level_line(seq_file, n, edit)
    capsys.readouterr()
    code = run_cli(["verify", "--input", str(coords), "--sequence", str(seq_file)])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("FAIL sequence-format: ")
    assert reason in out


def _stored_circle64(tmp_path):
    """A loaded 64-point circle and the sequence.txt of its depth-3 tower, which builds every level."""
    coords = tmp_path / "g.csv"
    outdir = tmp_path / "out"
    assert run_cli(["generate", "--space", "circle", "--n", "64", "--out", str(coords)]) == 0
    assert run_cli(["run", "--input", str(coords), "--outdir", str(outdir), "--depth", "3"]) == 0
    return coords, outdir / "sequence.txt"


def _edit_header_line(path, old, new):
    text = path.read_text()
    assert f"\n{old}\n" in text
    path.write_text(text.replace(f"\n{old}\n", f"\n{new}\n"))


def test_verify_stored_density_other_than_the_grounds_fails(tmp_path, capsys):
    # a tower stored for another density claim was verified against this one
    coords, seq_file = _stored_circle64(tmp_path)
    _edit_header_line(seq_file, "# density = 0.0", "# density = 0.05")
    capsys.readouterr()
    code = run_cli(["verify", "--input", str(coords), "--sequence", str(seq_file)])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("FAIL sequence-format: ")
    assert "sequence.txt:2: stored density = 0.05 is not the ground's density 0.0" in out
    # with the same claim it verifies, and a file without the line still loads
    assert run_cli(["verify", "--input", str(coords), "--density", "0.05", "--sequence", str(seq_file)]) == 0
    _edit_header_line(seq_file, "# density = 0.05", "")
    assert "# density" not in seq_file.read_text()
    assert run_cli(["verify", "--input", str(coords), "--sequence", str(seq_file)]) == 0


def test_verify_stored_requested_depth_below_the_levels_fails(tmp_path, capsys):
    coords, seq_file = _stored_circle64(tmp_path)
    _edit_header_line(seq_file, "# requested_depth = 3", "# requested_depth = 1")
    capsys.readouterr()
    code = run_cli(["verify", "--input", str(coords), "--sequence", str(seq_file)])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("FAIL sequence-format: ")
    assert "sequence.txt:3: requested_depth = 1 is below the 3 stored levels" in out


def test_verify_stored_stopped_early_without_a_reason_prints_no_stop(tmp_path, capsys):
    # the stop follows from stop_reason alone: a bare "stopped_early = True" line printed "stopped: None"
    coords, seq_file = _stored_circle64(tmp_path)
    _edit_header_line(seq_file, "# stopped_early = False", "# stopped_early = True")
    capsys.readouterr()
    assert run_cli(["verify", "--input", str(coords), "--sequence", str(seq_file)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "depth: requested 3, built 3"


@pytest.mark.parametrize("old, new, reason", [
    ("# stopped_early = False", "# stopped_early = False\n# stop_reason = made up",
     "sequence.txt:5: stop_reason describes no stop: all 3 requested levels are stored"),
    ("# requested_depth = 3", "# stop_reason = made up",
     "sequence.txt:3: stop_reason describes no stop: no requested_depth line"),
], ids=["every-level-stored", "no-requested-depth"])
def test_verify_stored_stop_reason_without_a_stop_fails(tmp_path, capsys, old, new, reason):
    # a stop reason on a tower holding every requested level printed "stopped: made up" and passed
    coords, seq_file = _stored_circle64(tmp_path)
    _edit_header_line(seq_file, old, new)
    capsys.readouterr()
    code = run_cli(["verify", "--input", str(coords), "--sequence", str(seq_file)])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("FAIL sequence-format: ")
    assert reason in out


def test_verify_stored_tower_missing_levels_without_a_stop_reason_fails(tmp_path, capsys):
    # a file cut short after level 2 printed "depth: requested 3, built 2" and passed every check
    coords, seq_file = _stored_circle64(tmp_path)
    seq_file.write_text("".join(seq_file.read_text().splitlines(keepends=True)[:-1]))
    capsys.readouterr()
    code = run_cli(["verify", "--input", str(coords), "--sequence", str(seq_file)])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("FAIL sequence-format: ")
    assert "sequence.txt:3: requested_depth = 3 is above the 2 stored levels, and no stop_reason says why" in out


def test_verify_stored_stop_reason_on_a_density_0_ground_fails(tmp_path, capsys):
    # construction never stops early at density 0: a tower cut after level 2
    # with a made-up stop reason printed "stopped: made up" and passed
    coords, seq_file = _stored_circle64(tmp_path)
    seq_file.write_text("".join(seq_file.read_text().splitlines(keepends=True)[:-1]))
    _edit_header_line(seq_file, "# stopped_early = False", "# stopped_early = False\n# stop_reason = made up")
    capsys.readouterr()
    code = run_cli(["verify", "--input", str(coords), "--sequence", str(seq_file)])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("FAIL sequence-format: ")
    assert "sequence.txt:5: stop_reason on a ground of density 0, where construction never stops early" in out
    assert "--density" in out


def test_run_non_finite_coordinate_is_input_error(tmp_path, capsys):
    coords = tmp_path / "g.csv"
    coords.write_text("id,x,y\n0,0.0,0.0\n1,nan,1.0\n2,1.0,0.0\n")
    code = run_cli(["run", "--input", str(coords), "--outdir", str(tmp_path / "out")])
    assert code == 2
    assert "non-finite coordinate in row 1" in capsys.readouterr().err


@pytest.mark.parametrize("args, data", [
    (["--space", "circle", "--n", "64", "--radius", "1e300"], None),
    (["--space", "interval", "--n", "16", "--length", "1e300"], None),
    (["--input", "{coords}"], "id,x,y\n0,1e200,0\n1,0,1e200\n2,1e200,1e200\n"),
], ids=["circle-radius", "interval-length", "coords-csv"])
def test_overflowing_coordinates_are_input_errors(tmp_path, capsys, args, data):
    # finite coordinates whose squared distances overflow would reach the tower checks as nan
    coords = tmp_path / "g.csv"
    if data:
        coords.write_text(data)
    argv = ["run", *[a.format(coords=coords) for a in args], "--outdir", str(tmp_path / "out")]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: coordinates overflow") and "Traceback" not in err


@pytest.mark.filterwarnings("error")  # a warning printed beside the error fails the case
@pytest.mark.parametrize("text", ["", "\n\n\n"], ids=["zero-bytes", "blank-lines"])
def test_empty_distance_matrix_exits_2_with_one_error_line(tmp_path, capsys, text):
    matrix = tmp_path / "empty.csv"
    matrix.write_text(text)
    assert run_cli(["run", "--input", str(matrix), "--format", "distmatrix_csv",
                    "--outdir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {matrix}: no data rows\n"


def test_gap_clamp_without_room_names_the_net_threshold(tmp_path, capsys):
    # 0.98 epsilon_1 - maxNN / 2 = 0.49 - 0.5 < 0: no net threshold is positive
    matrix = tmp_path / "two.csv"
    matrix.write_text("0,1\n1,0\n")
    assert run_cli(["run", "--input", str(matrix), "--format", "distmatrix_csv", "--density", "0.1",
                    "--outdir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: level 1 has no positive net threshold: epsilon_1 = 0.5, ")
    assert "nearest-neighbour distance 1.0 at density 0.1" in err


def write_jittered_circle_distmatrix(path, n, seed=0):
    """Distance-matrix CSV of n unit-circle points: equally spaced angles, each
    moved by up to a tenth of the spacing, listed in a seeded random order."""
    rng = np.random.default_rng(seed)
    theta = 2.0 * np.pi * (np.arange(n) + rng.uniform(-0.1, 0.1, n)) / n
    theta = theta[rng.permutation(n)]
    ground = MetricGround.from_coords(np.stack([np.cos(theta), np.sin(theta)], axis=1))
    np.savetxt(path, dense(ground), delimiter=",", fmt="%.17g")


def test_loaded_circle_at_stated_density_reports_the_circle(tmp_path, capsys):
    # at the default density 0 the finest levels are the whole sample and the
    # ranks are the sample's; stating the sampling resolution recovers the circle
    matrix = tmp_path / "circle.csv"
    write_jittered_circle_distmatrix(matrix, 1000)
    density = 0.6 * 2.0 * math.pi / 1000
    assert run_cli(["run", "--input", str(matrix), "--format", "distmatrix_csv", "--depth", "4",
                    "--density", repr(density), "--outdir", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    sampled = ", triangle inequality checked at 256 of 1000 midpoints"
    assert f"ground: 1000 points, density {density!r} (stated){sampled}\n" in out
    assert "stabilized ranks (window 2): (1, 1)" in out


@pytest.mark.parametrize("n, note", [
    (40, None),
    (600, "triangle inequality checked at 256 of 600 midpoints"),
], ids=["exhaustive", "sampled"])
def test_ground_line_names_a_sampled_triangle_check(tmp_path, capsys, n, note):
    matrix = tmp_path / "circle.csv"
    write_jittered_circle_distmatrix(matrix, n)
    load = ["--input", str(matrix), "--format", "distmatrix_csv", "--depth", "2"]
    assert run_cli(["run", *load, "--outdir", str(tmp_path / "out")]) == 0
    ground_line = capsys.readouterr().out.splitlines()[0]
    assert ground_line == f"ground: {n} points, density 0.0 (assumed 0)" + (f", {note}" if note else "")
    # verify names the same check on a line of its own, ahead of its verdicts
    assert run_cli(["verify", *load]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if not line.startswith("PASS ")] == (
        [f"ground: {note}"] if note else []) + ["depth: requested 2, built 2"]
    assert not note or lines[0] == f"ground: {note}"


@pytest.mark.parametrize("source, args, config", [
    ("generated", ["--space", "circle", "--n", "32"], ""),
    ("assumed 0", ["--input", "{coords}"], ""),
    ("stated", ["--input", "{coords}"], "density = 0.03\n"),
])
def test_ground_line_names_the_density_source(tmp_path, capsys, source, args, config):
    coords = tmp_path / "c.csv"
    assert run_cli(["generate", "--space", "circle", "--n", "32", "--out", str(coords)]) == 0
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(config)
    args = [a.format(coords=coords) for a in args]
    capsys.readouterr()
    assert run_cli(["run", *args, "--depth", "3", "--config", str(cfgfile), "--outdir", str(tmp_path / "out")]) == 0
    ground_line = capsys.readouterr().out.splitlines()[0]
    assert ground_line.startswith("ground: 32 points, density ") and ground_line.endswith(f" ({source})")
    if source == "stated":
        assert ground_line == "ground: 32 points, density 0.03 (stated)"


@pytest.mark.parametrize("args", [
    ["--space", "circle", "--density", "0.1"],
    ["--input", "{coords}", "--density", "-0.1"],
    ["--input", "{coords}", "--density", "nan"],
], ids=["generated-space", "negative", "nan"])
def test_bad_density_exits_2(tmp_path, capsys, args):
    coords = tmp_path / "c.csv"
    coords.write_text("id,x,y\n0,0,0\n1,1,0\n")
    assert run_cli(["run", *[a.format(coords=coords) for a in args], "--outdir", str(tmp_path / "out")]) == 2
    assert "density" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("flag, value", [("--epsilon1", "nan"), ("--epsilon1", "inf")], ids=["epsilon1-nan", "epsilon1-inf"])
def test_non_finite_tie_tol_or_epsilon1_exits_2(tmp_path, capsys, command, flag, value):
    args = [command, "--space", "circle", "--n", "64", flag, value, "--outdir", str(tmp_path / "out")]
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert "must be finite" in err and value in err


def test_run_reports_depth_shortfall(tmp_path, capsys):
    outdir = tmp_path / "out"
    assert run_cli(["run", "--space", "circle", "--n", "256", "--depth", "5", "--outdir", str(outdir)]) == 0
    shortfall = "requested 5, built 4, stopped: epsilon_5 = "
    assert f"\ndepth: {shortfall}" in capsys.readouterr().out
    summary = (outdir / "summary.txt").read_text().splitlines()
    assert summary[0] == "verdict = pass"
    assert summary[1].startswith(f"depth = {shortfall}")


def test_verify_heap_stays_below_half_a_distance_table(capsys):
    n = 2000
    tracemalloc.start()
    try:
        assert run_cli(["verify", "--space", "circle", "--n", str(n), "--depth", "4"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 2
