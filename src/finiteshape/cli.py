"""Command line pipeline driver.

Subcommands: generate, run, verify, export-poset, export-complex.  A plain
``key = value`` config file (``--config``) becomes the defaults of the chosen
subcommand, and the command line is then parsed once more over those
defaults, so explicit flags win.  An unknown key, a line without ``=`` or a
value not of the key's type exits 2.  ``run`` and ``verify`` run every check
of the tower.  Exit codes: 0 when every check passed, 1 when a check printed
a FAIL line, 2 for bad input or configuration.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import get_args, get_type_hints

from .construction import (
    AdjustedSequence,
    SequenceFormatError,
    build_adjusted_sequence,
    check_sequence_inequalities,
    load_sequence_text,
    write_sequence_csv,
    write_sequence_text,
)
from .homotopy import check_diagram_commutes, check_identity_convergence
from .hyperspace import (
    BondingDiameterError,
    ElementCapError,
    Tower,
    bonding_map,
    build_hyperlevel,
    export_poset_csv,
    export_poset_dot,
    verify_adjusted_distance_bounds,
)
from .invariants import (
    HomologyCheckError,
    export_complex_csv,
    export_complex_off,
    order_complex,
    rips_complex,
    shape_report,
    write_homology_csv,
)
from .metric import VALID_KINDS, MetricGround, SpaceSpec, generate, load_ground, triangle_midpoints, write_coords_csv


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Settings of every command; their defaults are stated here only, the parser leaves unset flags out."""

    space: str | None = None
    n: int = 256
    radius: float = 1.0
    separation: float = 1.0
    length: float = 1.0
    cantor_depth: int = 4
    input: str | None = None
    format: str = "coords_csv"
    density: float | None = None  # None: generated spaces state their own, loaded samples assume 0
    epsilon1: float | None = None  # None: half the space diameter
    depth: int = 4
    safety: float = 0.9
    window: int = 2
    outdir: str = "out"

    def validate(self) -> None:
        if self.space is None and self.input is None:
            raise ConfigError("either --space or --input is required")
        if self.depth < 1:
            raise ConfigError(f"depth must be >= 1, got {self.depth}")
        if not (0.0 < self.safety < 1.0):
            raise ConfigError(f"safety must lie strictly in (0, 1), got {self.safety}")
        if self.epsilon1 is not None and not 0.0 < self.epsilon1 < math.inf:
            raise ConfigError(f"epsilon1 must be finite and positive, got {self.epsilon1}")
        if self.window < 2:
            raise ConfigError("stabilization window must be >= 2")
        if self.format not in ("coords_csv", "distmatrix_csv"):
            raise ConfigError(f"unknown input format {self.format}")
        if self.density is not None:
            if self.input is None:
                raise ConfigError("--density applies to --input samples; generated spaces state their own")
            if not 0.0 <= self.density < math.inf:
                raise ConfigError(f"density must be finite and nonnegative, got {self.density}")

    @property
    def density_source(self) -> str:
        if self.input is None:
            return "generated"
        return "assumed 0" if self.density is None else "stated"


_SPACE_ALIASES = {"warsaw": "warsaw_circle"}


def _spec_from_config(cfg: RunConfig) -> SpaceSpec:
    return SpaceSpec(
        kind=_SPACE_ALIASES.get(cfg.space, cfg.space),
        n=cfg.n,
        radius=cfg.radius,
        separation=cfg.separation,
        length=cfg.length,
        cantor_depth=cfg.cantor_depth,
    )


def _build_sequence(cfg: RunConfig, sequence: str | None = None) -> AdjustedSequence:
    """Load or generate the ground, then build the tower (or load a stored one).

    ``epsilon1`` defaults to half the ground's diameter.  A malformed stored
    sequence raises ``SequenceFormatError``.  Commands that run checks wrap
    the result in a ``Tower``; the exports need only the nets.
    """
    if cfg.input is not None:
        ground = load_ground(cfg.input, cfg.format, density=0.0 if cfg.density is None else cfg.density)
    else:
        ground = generate(_spec_from_config(cfg))
    if sequence:
        return load_sequence_text(ground, sequence)
    eps1 = cfg.epsilon1 if cfg.epsilon1 is not None else ground.diameter() / 2.0
    return build_adjusted_sequence(ground, eps1, cfg.depth, cfg.safety)


def _add_space_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--space", choices=[*VALID_KINDS, *_SPACE_ALIASES])
    p.add_argument("--n", type=int, help="sample count")
    p.add_argument("--radius", type=float)
    p.add_argument("--separation", type=float)
    p.add_argument("--length", type=float)
    p.add_argument("--cantor-depth", type=int)


def _add_run_options(p: argparse.ArgumentParser) -> None:
    _add_space_options(p)
    p.add_argument("--input", help="load a ground sample instead of generating one")
    p.add_argument("--format", choices=["coords_csv", "distmatrix_csv"])
    p.add_argument("--density", type=float,
                   help="claimed covering radius of an --input sample (default: 0, the sample is the space)")
    p.add_argument("--epsilon1", type=float, help="first scale (default: half the space diameter)")
    p.add_argument("--depth", type=int)
    p.add_argument("--safety", type=float)
    p.add_argument("--window", type=int)
    p.add_argument("--outdir")
    p.add_argument("--config", default=None, help="key = value file; explicit flags override it")


def _add_export_options(p: argparse.ArgumentParser) -> None:
    _add_run_options(p)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--cap", type=int, default=None, help="poset element cardinality cap (default 3; not with --complex rips)")
    p.add_argument("--out", required=True, help="output path base (suffixes added)")


_CONFIG_KEYS = {  # each RunConfig field and its type; X for a field typed X | None
    name: next(t for t in (*get_args(hint), hint) if t is not type(None))
    for name, hint in get_type_hints(RunConfig).items()
}


def _read_config_file(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            typ = _CONFIG_KEYS[key]
            try:
                out[key] = typ(value)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: {key} = {value!r} is not a valid {typ.__name__}") from None
    return out


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(**{key: value for key, value in vars(args).items() if key in _CONFIG_KEYS})
    cfg.validate()
    return cfg


def cmd_generate(cfg: RunConfig, args) -> int:
    if cfg.space is None:
        raise ConfigError("--space is required for generate")
    ground = generate(_spec_from_config(cfg))
    write_coords_csv(ground, args.out)
    print(f"wrote {ground.n} points to {args.out} (density {ground.density!r})")
    return 0


def _print_verdict(name: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def _run_checks(tower: Tower):
    """Print one verdict line per check of the tower; return (all passed, square witnesses)."""
    seq = tower.seq
    all_ok = True

    records = check_sequence_inequalities(seq)
    ok = all(r["ok"] for r in records)
    worst = min(records, key=lambda r: r["slack"])
    detail = f"min slack {worst['slack']!r} at {worst['name']}"
    if not ok:
        bad = [r["name"] for r in records if not r["ok"]]
        detail = "violated: " + "; ".join(bad)
    all_ok &= _print_verdict("sequence-inequalities", ok, detail)

    rep = verify_adjusted_distance_bounds(tower)
    detail = ", ".join(f"{c.name} slack {c.min_slack:.3g}" for c in rep.clauses) if seq.depth >= 2 else "no pairs"
    if not rep.ok:
        detail = "; ".join(f"{c.name}: {len(c.violations)} violations" for c in rep.clauses if c.violations)
    all_ok &= _print_verdict("distance-bounds", rep.ok, detail)

    rep = check_identity_convergence(tower)
    pairs = [f"2eps_{n}->n0={bc.n0_consecutive}/{bc.n0_inclusion}" for n, bc in zip(rep.levels, rep.per_bound)]
    all_ok &= _print_verdict("identity-convergence", rep.ok, " ".join(pairs))

    witnesses = [check_diagram_commutes(tower, n) for n in range(1, seq.depth)]
    ok = all(w.verdict for w in witnesses)
    detail = "no pairs"
    if witnesses:
        detail = f"{seq.depth - 1} level squares, min slack {min(w.slack for w in witnesses):.3g}"
    all_ok &= _print_verdict("square-commutes", ok, detail)

    return all_ok, witnesses


def _depth(seq: AdjustedSequence) -> str:
    stopped = f", stopped: {seq.stop_reason}" if seq.stopped_early else ""
    return f"requested {seq.requested_depth}, built {seq.depth}{stopped}"


def _triangle_note(ground: MetricGround) -> str:
    """Names a sampled triangle-inequality check of a loaded distance table; empty when every midpoint was checked."""
    if ground.table is None:
        return ""
    checked = len(triangle_midpoints(ground.n))
    if checked == ground.n:
        return ""
    return f"triangle inequality checked at {checked} of {ground.n} midpoints"


def cmd_run(cfg: RunConfig, args) -> int:
    os.makedirs(cfg.outdir, exist_ok=True)
    if not os.access(cfg.outdir, os.W_OK):
        raise ConfigError(f"output directory {cfg.outdir} is not writable")
    t0 = time.perf_counter()
    tower = Tower(_build_sequence(cfg))
    ground, seq = tower.ground, tower.seq
    write_sequence_text(seq, os.path.join(cfg.outdir, "sequence.txt"))
    write_sequence_csv(seq, os.path.join(cfg.outdir, "sequence.csv"))
    if ground.coords is not None:
        write_coords_csv(ground, os.path.join(cfg.outdir, "ground.csv"))

    depth = _depth(seq)
    note = _triangle_note(ground)
    print(f"ground: {ground.n} points, density {ground.density!r} ({cfg.density_source})" + (f", {note}" if note else ""))
    print(f"tower: epsilon1 {seq.level(1).epsilon!r}")
    print(f"depth: {depth}")
    for lv in seq.levels:
        print(f"  level {lv.index}: epsilon {lv.epsilon:.6g} gamma {lv.gamma:.6g} |net| {len(lv.net)}")

    all_ok, witnesses = _run_checks(tower)

    with open(os.path.join(cfg.outdir, "witnesses.txt"), "w") as fh:
        for w in witnesses:
            fh.write(
                f"check={w.name} bound={w.bound!r} max_union_diameter={w.max_union_diameter!r} "
                f"slack={w.slack!r} worst_item={w.worst_item} verdict={'pass' if w.verdict else 'fail'}\n"
            )

    rep = None
    homology_skipped = seq.depth < 2
    if homology_skipped:
        print(f"homology: skipped ({seq.depth} level built, needs 2)")
    else:
        try:
            rep = shape_report(tower, window=cfg.window)
        except (ElementCapError, BondingDiameterError, HomologyCheckError) as exc:
            all_ok &= _print_verdict("homology", False, str(exc))
    if rep is not None:
        write_homology_csv(rep, os.path.join(cfg.outdir, "homology.csv"))
        with open(os.path.join(cfg.outdir, "homology.txt"), "w") as fh:
            for row in rep.levels:
                fh.write(
                    f"level n={row.index} epsilon={row.epsilon!r} net_size={row.net_size} "
                    f"edges={row.n_edges} betti={row.betti}\n"
                )
            for pr in rep.pairs:
                fh.write(f"pair fine={pr.fine_index} coarse={pr.coarse_index} ranks={pr.ranks}\n")
            fh.write(f"stabilized window={rep.window} ranks={rep.stabilized}\n")
        print("homology (scale complex):")
        for row in rep.levels:
            print(f"  level {row.index}: edges {row.n_edges} core {row.core_size} betti {row.betti}")
        for pr in rep.pairs:
            print(f"  induced {pr.fine_index}->{pr.coarse_index}: ranks {pr.ranks}")
        print(f"  stabilized ranks (window {rep.window}): {rep.stabilized}")

    with open(os.path.join(cfg.outdir, "summary.txt"), "w") as fh:
        fh.write(f"verdict = {'pass' if all_ok else 'fail'}\n")
        fh.write(f"depth = {depth}\n")
        if homology_skipped:
            fh.write("homology = skipped\n")
        fh.write(f"elapsed_seconds = {time.perf_counter() - t0:.3f}\n")

    print(f"{'all checks passed' if all_ok else 'CHECKS FAILED'} ({time.perf_counter() - t0:.2f}s)")
    return 0 if all_ok else 1


def cmd_verify(cfg: RunConfig, args) -> int:
    try:
        tower = Tower(_build_sequence(cfg, args.sequence))
    except SequenceFormatError as exc:
        _print_verdict("sequence-format", False, str(exc))
        return 1
    seq = tower.seq
    note = _triangle_note(tower.ground)
    if note:
        print(f"ground: {note}")
    print(f"depth: {_depth(seq)}")
    ok, _ = _run_checks(tower)

    if seq.depth >= 2:
        # Unions of singleton images are monotone, so only diameters can fail,
        # and the steps decide the composites: p_{n,m}(E) = p_{n,n+1}(T) with
        # T = p_{n+1,m}(E).  By induction on m - n, T's diameter, from the
        # same ``pairs`` values, is below 2 epsilon_{n+1}, so T is a clique of
        # level n+1's graph (the same values against the same 2.0 * epsilon),
        # and the diameter of p_{n,n+1}(T) is a maximum over the images of
        # T's vertices and edges, which the step checks bounded.
        try:
            hls = [build_hyperlevel(tower.ground, lv, cap=2) for lv in seq.levels[1:]]  # level 1 maps nowhere
            for hl in hls:
                bonding_map(tower, hl)
            ok &= _print_verdict("monotone-bondings", True, f"{len(hls)} steps plus composites")
        except (BondingDiameterError, ElementCapError) as exc:
            ok &= _print_verdict("monotone-bondings", False, str(exc))

    return 0 if ok else 1


def _export_level(cfg: RunConfig, args):
    """The ground, the level to export and its cardinality cap (default 3, the triangles of the complexes)."""
    cap = 3 if args.cap is None else args.cap
    if cap < 3:
        raise ConfigError(f"cardinality cap {cap} too small: the complexes need cap 3 (triangles)")
    seq = _build_sequence(cfg)
    if not (1 <= args.level <= seq.depth):
        raise ConfigError(f"level {args.level} outside built depth {seq.depth}")
    return seq.ground, seq.level(args.level), cap


def cmd_export_poset(cfg: RunConfig, args) -> int:
    ground, level, cap = _export_level(cfg, args)
    hl = build_hyperlevel(ground, level, cap=cap)
    export_poset_dot(hl, args.out + ".dot")
    export_poset_csv(ground, hl, args.out + ".csv")
    print(f"wrote {hl.n_elements} elements to {args.out}.dot / .csv")
    return 0


def cmd_export_complex(cfg: RunConfig, args) -> int:
    if args.complex == "rips" and args.cap is not None:
        raise ConfigError("--cap applies only to the order complex (--complex order)")
    ground, level, cap = _export_level(cfg, args)
    if args.complex == "order":
        cx = order_complex(build_hyperlevel(ground, level, cap=cap))
    else:
        cx = rips_complex(ground, level)
    export_complex_off(cx, args.out + ".off")
    export_complex_csv(cx, args.out + ".csv")
    counts = " ".join(str(cx.count(k)) for k in range(len(cx.simplices)))
    print(f"wrote complex with simplex counts {counts} to {args.out}.off / .csv")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="finiteshape", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    command = functools.partial(sub.add_parser, argument_default=argparse.SUPPRESS)  # defaults come from RunConfig

    p_gen = command("generate", help="generate a ground sample as coords_csv")
    _add_space_options(p_gen)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--config", default=None, help=argparse.SUPPRESS)
    p_gen.set_defaults(func=cmd_generate, subparser=p_gen)

    p_run = command("run", help="full pipeline with exports and verdicts")
    _add_run_options(p_run)
    p_run.set_defaults(func=cmd_run, subparser=p_run)

    p_ver = command("verify", help="verification checks only, machine-readable verdicts")
    _add_run_options(p_ver)
    p_ver.add_argument("--sequence", default=None, help="verify a stored sequence export instead of rebuilding")
    p_ver.set_defaults(func=cmd_verify, subparser=p_ver)

    p_ep = command("export-poset", help="DOT and CSV export of one hyperspace level")
    _add_export_options(p_ep)
    p_ep.set_defaults(func=cmd_export_poset, subparser=p_ep)

    p_ec = command("export-complex", help="facet-list and CSV export of a level complex")
    _add_export_options(p_ec)
    p_ec.add_argument("--complex", choices=["order", "rips"], default="order")
    p_ec.set_defaults(func=cmd_export_complex, subparser=p_ec)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            args.subparser.set_defaults(**_read_config_file(args.config))
            args = parser.parse_args(argv)
        return args.func(_config_from_args(args), args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ElementCapError as exc:
        print(f"error: hyperspace enumeration: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
