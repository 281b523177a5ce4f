"""Reproducible experiment runner.

Subcommands build groups, catalogs and families from a JSON config, run one
named experiment, and write defect tables and transforms under the output
directory with experiment-name prefixes.  Exit codes: 0 success, 2 config
error (a ``ConfigError``: a bad config value, spec or referenced file), 3
breach of a numerical invariant (Gram or Bessel).  Any other exception is an
internal failure: it is not caught, so the process exits 1 with its
traceback.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import config as cfgmod
from .catalog import build_catalog
from .config import ConfigError, ExperimentConfig, InvariantBreach
from .groups import make_group
from .hilbert import coefficients, gram_tol
from .iwasawa import lift_family, make_iwasawa_model, max_reproduction_residual, reproduction_residual
from .semicomplete import OmissionSpec, build_riemann_lebesgue_family, semicompleteness_defect

BESSEL_SLACK = 1e-9


def _family(cfg: ExperimentConfig, cat):
    """The family without the omitted labels (Peter-Weyl when none), checked
    to be orthonormal within the tolerance; the check streams its Gram
    matrix and keeps none of it."""
    family = build_riemann_lebesgue_family(cat, OmissionSpec(omitted=cfg.omit))
    _check_gram(cfg, family)
    return family


def _check_gram(cfg: ExperimentConfig, family) -> None:
    """Raise InvariantBreach unless max |G - I| is within the tolerance."""
    limit = cfg.tol if cfg.tol is not None else gram_tol(family.group)
    defect = family.gram_defect()
    if not defect <= limit:  # a NaN defect fails too
        raise InvariantBreach(
            f"family Gram defect {defect:.3e} exceeds tolerance {limit:.3e}"
        )


def _bessel_columns(cfg: ExperimentConfig):
    """Columns (fn ids, ||f||^2, sum |<f, chi>|^2, defect) over the test set.

    The test set is stacked once and its coefficients come from one kernel
    call.  A defect below -BESSEL_SLACK breaks Bessel's inequality.
    """
    group = make_group(cfg.group_spec)
    cat = build_catalog(group, truncation=cfg.truncation)
    family = _family(cfg, cat)
    ids, fns, _ = cfgmod.build_test_set(
        cfg.test_set_spec, group, family, seed_override=cfg.seed_override
    )
    coeffs = coefficients(fns, family)
    norm_sq = np.array([f.norm_sq() for f in fns], dtype=float)
    # the kernel returns coeffs in Fortran order; C-ordered rows keep each row's
    # pairwise summation, so the sums equal the per-row np.sum bit for bit
    coeff_sum = np.sum(np.abs(coeffs, order="C") ** 2, axis=1)
    defect = norm_sq - coeff_sum
    for fid, d in zip(ids, defect):
        if d < -BESSEL_SLACK:
            raise InvariantBreach(f"Bessel inequality violated for {fid}: defect {d:.3e}")
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
    group = make_group(cfg.group_spec)
    cat = build_catalog(group, truncation=cfg.truncation)
    family = _family(cfg, cat)
    weights = cfgmod.build_weights(
        cfg.weights_spec, family.max_block_size, seed_override=cfg.seed_override
    )
    if np.any(weights.gamma == 0) or np.any(weights.beta == 0):
        raise ConfigError(f"expansion weights {cfg.weights_spec!r} have a zero entry")
    ids, fns, descriptor = cfgmod.build_test_set(
        cfg.test_set_spec, group, family, seed_override=cfg.seed_override
    )
    if not fns:
        raise ConfigError("semicomplete needs a nonempty test set")
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
    xi = _family(cfg, build_catalog(model.K, truncation=iw.truncation))
    lifted = lift_family(model, xi)

    restricted = lifted.restrict_to_k()
    restriction_residual = float(np.max(np.abs(restricted.members - xi.members))) if xi.n_members else 0.0
    # the lift's Gram matrix is xi's times the AN mass, so one Gram matrix serves both
    gram = xi.gram_matrix()
    lifted_gram = gram * lifted.an_mass
    gram_residual = float(np.max(np.abs(lifted_gram - gram)))
    norm_residual = float(np.max(np.abs(np.diag(lifted_gram) - 1.0)))
    obj = {
        "group": model.K.name,
        "profile": model.profile_name,
        "n_members": xi.n_members,
        "restriction_residual": restriction_residual,
        "gram_residual": gram_residual,
        "norm_residual": norm_residual,
        "condition_i_residual": model.condition_i_residual(),
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
        p.add_argument("--seed", type=int, default=None, help="override config seeds")
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
