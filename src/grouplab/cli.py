"""Reproducible experiment runner.

Subcommands build groups, catalogs and families from a JSON config, run one
named experiment, and write defect tables and transforms under the output
directory with experiment-name prefixes.  Exit codes: 0 success, 2 config
error (a ``ConfigError``: a bad config value, spec or referenced file), 3
breach of a numerical invariant (a row of ``hilbert.CLI_INVARIANTS``, each
checked by ``_require``).  Any other exception is an internal failure: it is
not caught, so the process exits 1 with its traceback.

BLAS idle policy: numpy's bundled OpenBLAS starts a pool of worker threads
when numpy loads, and by default an idle worker busy-waits for 2**28 cycles
after init and after each parallel product before it sleeps, which a short
CLI run pays for in CPU time it never uses.  Before numpy is first imported
this module therefore sets ``OPENBLAS_THREAD_TIMEOUT`` to
``BLAS_THREAD_TIMEOUT``, unless ``OPENBLAS_THREAD_TIMEOUT`` or
``GOTO_THREAD_TIMEOUT`` is already set (a value in the environment wins).
The workers stay, so the few large products a run makes (the Gram slabs,
the stacked coefficient call) still use every BLAS thread.  OpenBLAS reads
the variable once, when numpy loads it, so the setting takes effect only
when this module is imported before numpy, as ``python -m grouplab.cli``
and the ``grouplab`` script do; BLAS builds other than OpenBLAS ignore it.
A library ``import grouplab`` leaves the environment alone.
"""
from __future__ import annotations

import argparse
import os
import sys

#: OpenBLAS's idle-worker timeout: a worker spins 2**4 cycles once idle and
#: then sleeps.  4 is OpenBLAS's minimum; its default is 28.
BLAS_THREAD_TIMEOUT = "4"

if "OPENBLAS_THREAD_TIMEOUT" not in os.environ and "GOTO_THREAD_TIMEOUT" not in os.environ:
    os.environ["OPENBLAS_THREAD_TIMEOUT"] = BLAS_THREAD_TIMEOUT

import numpy as np  # only now: OpenBLAS reads the policy above when numpy loads it

# perfbench/traced.py wraps names in the grouplab modules it finds loaded
# right after importing this one, so these imports stay at module level
from . import config as cfgmod
from .catalog import build_catalog
from .config import ConfigError, ExperimentConfig, InvariantBreach
from .groups import make_group
from .hilbert import coefficients, tolerance
from .iwasawa import lift_family, make_iwasawa_model, max_reproduction_residual, reproduction_residual
from .semicomplete import OmissionSpec, build_riemann_lebesgue_family, semicompleteness_defect


def _require(name: str, residual: float, group, tol: float | None = None) -> None:
    """Raise InvariantBreach unless ``residual`` is within invariant ``name``'s
    tolerance on ``group`` (``tol`` in its place when given); NaN fails too."""
    limit = tolerance(name, group.kind) if tol is None else tol
    if not residual <= limit:
        raise InvariantBreach(f"{name} residual {residual:.3e} exceeds tolerance {limit:.3e}")


def _analysis(cfg: ExperimentConfig):
    """The catalog, the family and the test set (ids, functions, descriptor)
    of an analysis command.  The family keeps every label not in ``omit``
    (Peter-Weyl when none) and is checked to be orthonormal within the tolerance; the
    check streams its Gram matrix and keeps none of it."""
    group = make_group(cfg.group_spec)
    cat = build_catalog(group, truncation=cfg.truncation)
    family = build_riemann_lebesgue_family(cat, OmissionSpec(omitted=cfg.omit))
    _require("gram", family.gram_defect(), group, cfg.tol)
    test_set = cfgmod.build_test_set(cfg.test_set_spec, group, family, seed_override=cfg.seed_override)
    return cat, family, test_set


def _bessel_columns(cfg: ExperimentConfig):
    """Columns (fn ids, ||f||^2, sum |<f, chi>|^2, defect) over the test set.

    The test set is stacked once and its coefficients come from one kernel call.
    """
    _, family, (ids, fns, _) = _analysis(cfg)
    coeffs = coefficients(fns, family)
    norm_sq = np.array([f.norm_sq() for f in fns], dtype=float)
    # the kernel returns coeffs in Fortran order; C-ordered rows keep each row's
    # pairwise summation, so the sums equal the per-row np.sum bit for bit
    coeff_sum = np.sum(np.abs(coeffs, order="C") ** 2, axis=1)
    defect = norm_sq - coeff_sum
    _require("bessel", float(np.max(-defect, initial=-np.inf)), family.group)
    return ids, norm_sq, coeff_sum, defect


def cmd_catalog(cfg: ExperimentConfig) -> int:
    group = make_group(cfg.group_spec)
    cat = build_catalog(group, truncation=cfg.truncation)
    cfgmod.write_json(cfg.out_dir / f"{cfg.name}_catalog.json", cfgmod.catalog_json_obj(cat))
    if cfg.dump_coefficients:
        from .dump import write_coefficient_dump  # compiled only by the runs that dump

        write_coefficient_dump(cat, cfg.out_dir, cfg.name)
    return 0


def cmd_parseval(cfg: ExperimentConfig) -> int:
    cfgmod.write_csv(
        cfg.out_dir / f"{cfg.name}_parseval.csv",
        ["fn_id", "norm_sq", "coeff_sum_sq", "defect"],
        [_bessel_columns(cfg)],
    )
    return 0


def cmd_semicomplete(cfg: ExperimentConfig) -> int:
    cat, family, (ids, fns, descriptor) = _analysis(cfg)
    weights = cfg.weights(family.max_block_size)
    report = semicompleteness_defect(
        family,
        weights,
        cat,
        fns,
        epsilon=cfg.epsilon,
        test_set_name=descriptor,
        function_ids=ids,
    )
    cfgmod.write_json(
        cfg.out_dir / f"{cfg.name}_semicomplete.json", cfgmod.report_json_obj(report)
    )
    cfgmod.write_csv(
        cfg.out_dir / f"{cfg.name}_semicomplete.csv",
        ["fn", "defect"],
        [tuple(zip(*report.per_function))],
    )
    return 0


def cmd_isometry(cfg: ExperimentConfig) -> int:
    # ||transform_H(f)||^2 is sum |<f, chi>|^2, so the isometry defect is |Bessel defect|
    ids, norm_sq, seq_norm_sq, defect = _bessel_columns(cfg)
    cfgmod.write_csv(
        cfg.out_dir / f"{cfg.name}_isometry.csv",
        ["fn_id", "norm_sq", "seq_norm_sq", "defect"],
        [(ids, norm_sq, seq_norm_sq, np.abs(defect))],
    )
    return 0


def cmd_lift(cfg: ExperimentConfig) -> int:
    if cfg.iwasawa is None:
        raise ConfigError("lift needs an 'iwasawa' block in the config")
    iw = cfg.iwasawa
    model = make_iwasawa_model(
        iw.k_spec, iw.a_range, iw.n_range, iw.a_size, iw.n_size, profile=iw.profile
    )
    cat = build_catalog(model.K, truncation=iw.truncation)
    xi = build_riemann_lebesgue_family(cat, OmissionSpec(omitted=cfg.omit))
    # one Gram matrix of xi gives its defect, the same float as the streamed
    # check's, and the lift's Gram matrix, xi's times the AN mass
    gram = xi.gram_matrix()
    _require("gram", float(np.max(np.abs(gram - np.eye(xi.n_members)))), model.K, cfg.tol)
    restricted = lift_family(model, xi).restrict_to_k()
    restriction_residual = float(np.max(np.abs(restricted.members - xi.members)))
    condition_i_residual = model.condition_i_residual()
    lifted_gram = gram * model.an_mass
    gram_residual = float(np.max(np.abs(lifted_gram - gram)))
    norm_residual = float(np.max(np.abs(np.diag(lifted_gram) - 1.0)))
    _require("lift_restriction", restriction_residual, model.K)
    _require("lift_condition_i", condition_i_residual, model.K)
    _require("lift_gram", gram_residual, model.K, cfg.tol)
    _require("lift_norm", norm_residual, model.K, cfg.tol)
    obj = {
        "group": model.K.name,
        "profile": model.profile_name,
        "n_members": xi.n_members,
        "restriction_residual": restriction_residual,
        "gram_residual": gram_residual,
        "norm_residual": norm_residual,
        "condition_i_residual": condition_i_residual,
        "condition_ii_residual": model.condition_ii_residual(),
        "reproduction": {
            "at_identity": reproduction_residual(model),
            "max_over_grid": max_reproduction_residual(model),
        },
    }
    cfgmod.write_json(cfg.out_dir / f"{cfg.name}_lift.json", obj)
    return 0


COMMANDS = {
    "catalog": cmd_catalog,
    "parseval": cmd_parseval,
    "semicomplete": cmd_semicomplete,
    "isometry": cmd_isometry,
    "lift": cmd_lift,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="grouplab",
        description="harmonic-analysis experiments on concrete compact groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help=(
            "override the seed of diag-reciprocal weights and of a random:count=N test set "
            "(random:seed=S list entries keep theirs)"))
        p.add_argument("--tol", type=float, default=None, help="override config tolerance")
    args = parser.parse_args(argv)

    try:
        cfg = cfgmod.load_config(
            args.config,
            out_override=args.out,
            seed_override=args.seed,
            tol_override=args.tol,
        )
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InvariantBreach as exc:
        print(f"numerical invariant failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
