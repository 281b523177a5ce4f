"""Reproducible experiment runner.

Subcommands build groups, catalogs and families from a JSON config, run one
named experiment, and write defect tables and transforms under the output
directory with experiment-name prefixes.  Exit codes: 0 success, 2 config
error (a ``ConfigError``: a bad config value, spec, referenced file or output
path), 3 breach of a numerical invariant (a row of ``hilbert.CLI_INVARIANTS``,
each checked by ``_require``).  Any other exception is not caught: the process
exits 1 with its traceback.  Every command that builds a family checks it with
``catalog.gram_defect_bound`` (the circle's is a Toeplitz bound), and none
builds a Gram matrix or copies the lift's K factor: ``lift`` reads the
restriction residual as |envelope[id_index] - 1| * max |xi| and the others
off the AN mass and the diagonal of Gram(xi) = Gram(lift) / mass.

BLAS idle policy: numpy's bundled OpenBLAS starts a pool of worker threads
when numpy loads, and by default an idle worker busy-waits for 2**28 cycles
after init and after each parallel product before it sleeps, which a short
CLI run pays for in CPU time it never uses.  Before numpy is first imported
this module therefore sets ``OPENBLAS_THREAD_TIMEOUT`` to
``BLAS_THREAD_TIMEOUT``, unless ``OPENBLAS_THREAD_TIMEOUT`` or
``GOTO_THREAD_TIMEOUT`` is already set (a value in the environment wins).
The workers stay, so the few large products a run makes (the Gram slabs,
the stacked coefficient call of each chunk of test functions) still use
every BLAS thread.  OpenBLAS reads the variable once, when numpy loads it,
so the setting takes effect only when this module is imported before
numpy, as ``python -m grouplab.cli`` and the ``grouplab`` script do; BLAS
builds other than OpenBLAS ignore it.
A library ``import grouplab`` leaves the environment alone.

Processes: the coefficient dump of ``catalog`` and the test-set walk of
``semicomplete`` run on every usable CPU, in workers forked by
``workers.run_shares``; the outputs do not depend on the CPU count.  The
walk's workers enter BLAS, so its split pays only under the idle policy
above: under OpenBLAS's default spin, the idle BLAS threads of each process
spin on the CPUs the other needs, and the split walk is slower than one
process's.  Threads in place of the workers would not help, as the walk's
per-label calls hold the GIL.
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
from .catalog import build_catalog, gram_defect_bound
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


def _checked_family(cat, cfg: ExperimentConfig):
    """The family of ``cat`` that keeps every label not in ``cfg.omit``
    (Peter-Weyl when none), checked to be orthonormal within the tolerance by
    ``gram_defect_bound``: the streamed Gram defect, which keeps none of the
    Gram matrix, or on the circle its Toeplitz bound."""
    family = build_riemann_lebesgue_family(cat, OmissionSpec(omitted=cfg.omit))
    _require("gram", gram_defect_bound(cat, family), cat.group, cfg.tol)
    return family


def _analysis(cfg: ExperimentConfig):
    """The catalog, the checked family (``_checked_family``) and the test set
    of an analysis command.  The test set (``config.stream_test_set``) is
    made only after the check, and the commands walk it a chunk of rows at a
    time, so no random row is drawn, and no member row copied, before then."""
    group = make_group(cfg.group_spec)
    cat = build_catalog(group, truncation=cfg.truncation)
    family = _checked_family(cat, cfg)
    test_set = cfgmod.stream_test_set(cfg.test_set_spec, group, family, seed_override=cfg.seed_override)
    return cat, family, test_set


def _bessel_columns(cfg: ExperimentConfig):
    """Columns (fn ids, ||f||^2, sum |<f, chi>|^2, defect) over the test set.

    The sums are reduced a chunk of test functions at a time, with one kernel
    call for the coefficients of each chunk.
    """
    _, family, test_set = _analysis(cfg)
    columns = []
    for chunk in test_set.chunks():
        coeffs = coefficients(chunk, family)
        # the kernel returns coeffs in Fortran order; C-ordered rows keep each row's
        # pairwise summation, so the sums equal the per-row np.sum bit for bit
        columns.append((chunk.norm_sq(), np.sum(np.abs(coeffs, order="C") ** 2, axis=1)))
    norm_sq, coeff_sum = (np.concatenate(column) for column in zip(*columns))
    defect = norm_sq - coeff_sum
    _require("bessel", float(np.max(-defect, initial=-np.inf)), family.group)
    return test_set.ids, norm_sq, coeff_sum, defect


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
    cat, family, test_set = _analysis(cfg)
    report = semicompleteness_defect(
        family, cfg.weights(family.max_block_size), cat, test_set, epsilon=cfg.epsilon
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
    xi = _checked_family(build_catalog(model.K, truncation=iw.truncation), cfg)
    lifted = lift_family(model, xi)
    # chi(., identity AN node) = envelope[id_index] * xi: one real |xi| pass, no restricted copy
    restriction_residual = float(abs(lifted.envelope[model.id_index] - 1.0) * np.max(np.abs(lifted.members)))
    condition_i_residual = model.condition_i_residual()
    # Gram(lift) = Gram(xi) * mass, and a Gram matrix, positive semidefinite, has
    # its largest entry on its diagonal G_mm = s_m^2 sum_k w_k |u_mk|^2
    mass = model.an_mass
    parts = xi.members.view(np.float64)      # (re, im) pairs of each member row
    diagonal = xi.scale**2 * np.einsum("mk,mk,k->m", parts, parts, np.repeat(xi.group.weights, 2))
    gram_residual = abs(mass - 1.0) * float(np.max(diagonal))
    norm_residual = float(np.max(np.abs(diagonal * mass - 1.0)))
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
        p.add_argument("--seed", default=None, help=(
            "override the seed of diag-reciprocal weights and of a random:count=N test set "
            "(random:seed=S list entries keep theirs)"))
        p.add_argument("--tol", default=None, help="override config tolerance")
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
