"""Batch driver: mesh audits, convergence studies, two-grid comparisons.

Configuration is flat key-value text (``key = value`` under ``[section]``
headers).  Results are written as CSV plus gnuplot-ready ``.dat`` files.
Exit codes: 0 success, 1 solver failure or zero error, 2 configuration error.
"""

import argparse
import configparser
import csv
import dataclasses
import json
import sys
import time
from pathlib import Path

from .analysis import AnalysisError, ZeroError, check_angle_condition, \
    convergence_report, error_norms
from .assembly import NotAVertex, assemble_point_load
from .mesh import MeshError, generate_interface_mesh, refine_uniform
from .problems import BUILTIN_PROBLEMS, ProblemError, builtin_problem, \
    manufactured_interface_problem
from .solvers import NewtonOptions, SolverError, newton_solve
from .twogrid import InvalidRegularity, nested_newton_solve, \
    newton_levels, select_coarse_size, two_grid_solve

__all__ = ["StudyConfig", "ConfigError", "load_config", "main"]

CONVERGE_COLUMNS = ["level", "h", "n_dof", "err_energy", "err_l2", "err_l4",
                    "eoc_energy", "eoc_l2", "eoc_l4", "newton_iters",
                    "wall_ms"]
TWOGRID_COLUMNS = ["h", "H", "err_energy_direct", "err_energy_twogrid",
                   "ratio", "coarse_newton_iters", "fine_linear_iters",
                   "wall_ms_direct", "wall_ms_twogrid"]


class ConfigError(Exception):
    pass


@dataclasses.dataclass(frozen=True)
class StudyConfig:
    """Everything a study needs: problem, geometry, levels, tolerances.

    ``domain`` and ``box`` are None unless set, for the problem's own
    geometry."""

    problem_name: str = "manufactured"
    problem_params: dict = dataclasses.field(default_factory=dict)
    domain: tuple | None = None
    box: tuple | None = None
    coarsest_n: int = 8
    level_count: int = 3
    newton_abs_tol: float = 1e-10
    newton_rel_tol: float = 1e-12
    newton_max_iters: int = 40
    s: float = 2.0
    tau: float = 2.0
    out_dir: str = "out"

    def __post_init__(self):
        if self.level_count < 1:
            raise ConfigError("need at least one level")
        if self.coarsest_n < 2:
            raise ConfigError("coarsest_n must be at least 2")
        try:
            self.newton_options()
        except ValueError as exc:
            # NewtonOptions names the field; its key here has a prefix
            raise ConfigError(f"newton_{exc}") from None
        names = ("manufactured",) + BUILTIN_PROBLEMS
        if self.problem_name not in names:
            raise ConfigError(f"unknown problem {self.problem_name!r}; "
                              f"choose from {', '.join(names)}")
        try:
            # checks s and tau; any h serves
            select_coarse_size(1.0, self.s, self.tau)
        except InvalidRegularity as exc:
            raise ConfigError(str(exc)) from None

    def newton_options(self):
        return NewtonOptions(abs_tol=self.newton_abs_tol,
                             rel_tol=self.newton_rel_tol,
                             max_iters=self.newton_max_iters)


def _numbers(text):
    """One float, or a tuple of floats when the text holds several."""
    values = tuple(float(part) for part in text.split())
    if not values:
        raise ValueError("no value")
    return values[0] if len(values) == 1 else values


def _rectangle(text):
    """``xmin xmax ymin ymax`` as a tuple of four floats."""
    values = tuple(float(part) for part in text.split())
    if len(values) != 4:
        raise ValueError(f"needs 4 numbers, got {len(values)}")
    return values


# (section, key) -> (StudyConfig field, parser of the value text); the
# [problem] keys other than name are the problem's parameters
SETTINGS = {
    ("problem", "name"): ("problem_name", str),
    ("geometry", "domain"): ("domain", _rectangle),
    ("geometry", "box"): ("box", _rectangle),
    ("levels", "coarsest_n"): ("coarsest_n", int),
    ("levels", "count"): ("level_count", int),
    ("solver", "newton_abs_tol"): ("newton_abs_tol", float),
    ("solver", "newton_rel_tol"): ("newton_rel_tol", float),
    ("solver", "newton_max_iters"): ("newton_max_iters", int),
    ("twogrid", "s"): ("s", float),
    ("twogrid", "tau"): ("tau", float),
    ("output", "out_dir"): ("out_dir", str),
}


def load_config(path):
    """Parse the study configuration file; every section and key must be
    one of SETTINGS or a [problem] parameter."""
    # no section is the default one, so [DEFAULT] is an unknown section
    # instead of keys copied into every other section
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None,
                                       default_section="")
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")

    values, params = {}, {}
    for section in parser.sections():
        keys = [k for s, k in SETTINGS if s == section]
        if not keys:
            raise ConfigError(f"[{section}] is not a config section")
        for key, text in parser.items(section):
            if key in keys:
                target, name, parse = values, *SETTINGS[section, key]
            elif section != "problem":
                raise ConfigError(f"{key} is not a key of [{section}]; "
                                  f"choose from {', '.join(keys)}")
            elif key in ("domain", "interface_box"):
                raise ConfigError(f"{key} is not a problem parameter; the "
                                  f"geometry is set under [geometry]")
            else:
                target, name, parse = params, key, _numbers
            try:
                target[name] = parse(text)
            except ValueError as exc:
                raise ConfigError(f"{key} = {text!r}: {exc}") from None
    return StudyConfig(problem_params=params, **values)


def _build_problem(cfg):
    """Problem instance plus the exact solution when one exists."""
    params = cfg.problem_params
    geometry = {key: value for key, value
                in (("domain", cfg.domain), ("interface_box", cfg.box))
                if value is not None}
    try:
        if cfg.problem_name != "manufactured":
            return builtin_problem(cfg.problem_name, **geometry,
                                   **params), None
        for key, value in (("domain", cfg.domain), ("box", cfg.box)):
            if value is not None:
                raise ConfigError(f"{key} cannot be set: the manufactured "
                                  f"problem has a fixed geometry")
        extra = sorted(set(params) - {"d_inside", "d_outside"})
        if extra:
            raise ConfigError(
                f"manufactured problem takes only d_inside/d_outside, "
                f"got {extra}")
        return manufactured_interface_problem(params.get("d_inside", 1000.0),
                                              params.get("d_outside", 1.0))
    except (ProblemError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def _build_hierarchy(cfg):
    problem, exact = _build_problem(cfg)
    mesh = generate_interface_mesh(cfg.coarsest_n, problem.domain,
                                   problem.interface_box)
    meshes = [mesh]
    for _ in range(cfg.level_count - 1):
        meshes.append(refine_uniform(meshes[-1]))
    source = problem.point_source
    if source is not None:
        # fail early (NotAVertex) if the load cannot land on a vertex
        assemble_point_load(meshes[0], source.location, source.magnitude)
    return problem, exact, meshes


def _with_reference_levels(meshes):
    """The study levels plus two uniform refinements past the finest one.

    A warm-started solve on the last of them is the Richardson-style
    reference for problems without a closed-form solution.
    """
    finer = refine_uniform(meshes[-1])
    return meshes + [finer, refine_uniform(finer)]


def _write_rows(path, columns, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def _write_dat(path, columns, rows):
    with open(path, "w") as fh:
        fh.write("# " + " ".join(columns) + "\n")
        for row in rows:
            fh.write(" ".join(str(v) if v != "" else "nan" for v in row)
                     + "\n")


def _fmt(value):
    return repr(float(value))


def cmd_check_mesh(cfg, args):
    problem, _, meshes = _build_hierarchy(cfg)
    results = []
    for level, mesh in enumerate(meshes):
        report = check_angle_condition(mesh, problem.diffusion)
        results.append({
            "level": level,
            "n_vertices": mesh.n_vertices,
            "h": mesh.h,
            "worst_offdiag": report.worst_offdiag,
            "tolerance": report.tolerance,
            "passes": report.passes,
            "violating_pairs": len(report.violating_pairs),
        })
    if args.json:
        print(json.dumps({"levels": results,
                          "all_pass": all(r["passes"] for r in results)},
                         indent=2))
    else:
        print(f"{'level':>5} {'vertices':>9} {'h':>12} {'worst_offdiag':>15} "
              f"{'pass':>5}")
        for r in results:
            print(f"{r['level']:>5} {r['n_vertices']:>9} {r['h']:>12.6g} "
                  f"{r['worst_offdiag']:>15.6e} "
                  f"{'yes' if r['passes'] else 'NO':>5}")
    return 0 if all(r["passes"] for r in results) else 1


def cmd_converge(cfg, args):
    problem, exact, meshes = _build_hierarchy(cfg)
    out = Path(args.out or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    # one warm-started chain gives the study levels and, when there is no
    # exact solution, the reference on its last level
    chain = meshes if exact is not None else _with_reference_levels(meshes)
    levels = list(newton_levels(chain, problem, cfg.newton_options()))
    if exact is None:
        exact = levels[-1][0]
    records = [error_norms(problem.diffusion, u, exact)
               for u, _ in levels[:len(meshes)]]
    report = convergence_report(records)

    rows = []
    for idx, rec in enumerate(records):
        eoc = ["", "", ""]
        if idx > 0:
            eoc = [_fmt(report.eoc_energy[idx - 1]),
                   _fmt(report.eoc_l2[idx - 1]),
                   _fmt(report.eoc_l4[idx - 1])]
        solve = levels[idx][1]
        wall = 0.0 if args.seed is not None else solve.wall_s * 1e3
        rows.append([idx, _fmt(rec.h), rec.n_dof, _fmt(rec.err_energy),
                     _fmt(rec.err_l2), _fmt(rec.err_l4), *eoc,
                     solve.iterations, f"{wall:.3f}"])
    _write_rows(out / "converge.csv", CONVERGE_COLUMNS, rows)
    _write_dat(out / "converge.dat", CONVERGE_COLUMNS, rows)
    print(f"wrote {out / 'converge.csv'}")
    if report.eoc_energy:
        print(f"final EOC: energy {report.eoc_energy[-1]:.3f} "
              f"l2 {report.eoc_l2[-1]:.3f} l4 {report.eoc_l4[-1]:.3f}")
    return 0


def cmd_twogrid(cfg, args):
    if cfg.level_count < 2:
        raise ConfigError("twogrid needs at least two levels")
    problem, exact, meshes = _build_hierarchy(cfg)
    out = Path(args.out or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if exact is None:
        exact, _ = nested_newton_solve(_with_reference_levels(meshes),
                                       problem, cfg.newton_options())

    # grid spacing along x: the size the coarse-size selection works on
    xmin, xmax = problem.domain[:2]
    sizes = [(xmax - xmin) / (cfg.coarsest_n * 2 ** k)
             for k in range(len(meshes))]
    rows = []
    for idx, mesh in enumerate(meshes):
        if idx == 0:
            continue  # the coarsest level has no coarser partner
        coarse_sizes = sizes[:idx]
        h_sel = select_coarse_size(sizes[idx], cfg.s, cfg.tau, d=2,
                                   levels=coarse_sizes)
        coarse = meshes[coarse_sizes.index(h_sel)]

        # cold, like the two-grid solve: wall_ms_direct compares like with
        # like, so this does not reuse the warm-started reference chain
        direct, direct_report = newton_solve(
            mesh, problem, None, cfg.newton_options())
        wall_direct = direct_report.wall_s * 1e3

        start = time.perf_counter()
        result = two_grid_solve(coarse, mesh, problem)
        wall_two = (time.perf_counter() - start) * 1e3

        err_direct = error_norms(problem.diffusion, direct,
                                 exact).err_energy
        err_two = error_norms(problem.diffusion, result.fine_solution,
                              exact).err_energy
        if err_direct == 0.0:
            raise ZeroError("zero direct error: two-grid ratio undefined")
        if args.seed is not None:
            wall_direct = wall_two = 0.0
        rows.append([
            _fmt(sizes[idx]), _fmt(h_sel), _fmt(err_direct), _fmt(err_two),
            _fmt(err_two / err_direct),
            result.coarse_report.iterations,
            result.fine_report.linear_iters_total,
            f"{wall_direct:.3f}", f"{wall_two:.3f}",
        ])
    _write_rows(out / "twogrid.csv", TWOGRID_COLUMNS, rows)
    _write_dat(out / "twogrid.dat", TWOGRID_COLUMNS, rows)
    print(f"wrote {out / 'twogrid.csv'}")
    return 0


def cmd_solve(cfg, args):
    problem, _, meshes = _build_hierarchy(cfg)
    out = Path(args.out or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    solution, reports = nested_newton_solve(meshes, problem,
                                            cfg.newton_options())
    path = out / "solution.txt"
    with open(path, "w") as fh:
        fh.write(f"# {cfg.problem_name} n={cfg.coarsest_n} "
                 f"levels={cfg.level_count} nodal values\n")
        for value in solution.values:
            fh.write(f"{_fmt(value)}\n")
    print(f"wrote {path} ({solution.mesh.n_vertices} values, "
          f"{reports[-1].iterations} newton iterations on the finest level)")
    return 0


def _parser():
    parser = argparse.ArgumentParser(
        prog="twogridfem",
        description="Finite element studies for semilinear interface "
                    "problems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("check-mesh", cmd_check_mesh),
                     ("converge", cmd_converge),
                     ("twogrid", cmd_twogrid),
                     ("solve", cmd_solve)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="study config file")
        p.add_argument("--out", default=None, help="output directory")
        if name == "check-mesh":
            p.add_argument("--json", action="store_true",
                           help="machine-readable output")
        p.add_argument("--levels", type=int, default=None,
                       help="override the number of refinement levels")
        p.add_argument("--seed", type=int, default=None,
                       help="fix run metadata (zeroes timing columns) so "
                            "identical configs give byte-identical output")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.levels is not None:
            cfg = dataclasses.replace(cfg, level_count=args.levels)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.fn(cfg, args)
    except (ConfigError, MeshError, ProblemError, NotAVertex) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    except AnalysisError as exc:
        print(f"undefined result: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
