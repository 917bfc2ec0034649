"""Command-line front end.

Commands: ``wavelet info``, ``ccwt forward``, ``ccwt inverse``,
``verify <suite>``, ``fock sample``.  Exit codes: 0 success, 1 verify
tolerance failure, 2 malformed input file, 3 precondition or parse
violation.  All outputs are written atomically and are byte-identical for
identical inputs and flags.  ENTWAVE_THREADS caps internal parallelism.
"""

from __future__ import annotations

import dataclasses
import sys
import typing

import click
import numpy as np

from . import ccwt, fock, grid as gridmod, verify, wavelets
from .errors import EntwaveError, FileFormatError

EXIT_TOLERANCE = 1
EXIT_BAD_FILE = 2
EXIT_PRECONDITION = 3


def _fail(code: int, message: str):
    click.echo(f"entwave: {message}", err=True)
    sys.exit(code)


def _guarded(fn):
    """Translate library errors into the documented exit codes."""

    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except FileFormatError as exc:
            _fail(EXIT_BAD_FILE, str(exc))
        except FileNotFoundError as exc:
            _fail(EXIT_BAD_FILE, f"cannot read {exc.filename}")
        except (EntwaveError, ValueError) as exc:
            _fail(EXIT_PRECONDITION, str(exc))

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def read_config(path: str | None) -> dict:
    """Parse a plain-text key=value configuration file; no path reads as empty."""
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            return wavelets._read_key_values(fh, path)
    except (OSError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"cannot read config {path}: {exc}")


#: Config-file spellings of field names.
_ALIASES = {"scales": "scale_count"}


def _cast(hint, value):
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        return tuple(item(p.strip()) for p in value.split(",") if p.strip())
    return hint(value)


def load_settings(cls, config: dict, keys=None, **flags):
    """Settings dataclass ``cls`` from config-file values, overridden by flags.

    ``config`` maps keys to text; each value is cast by its field's type.
    ``keys`` lists the config keys the command accepts (default: every
    field); a key outside it is an error, not a no-op.  Flags left at None
    keep the config or default value.  ``cls.__post_init__`` validates the
    result, so bad parameters fail before work starts.
    """
    hints = typing.get_type_hints(cls)
    valid = hints if keys is None else keys
    unknown = [key for key in config if key not in valid]
    if unknown:
        raise ValueError(f"unknown config key {', '.join(map(repr, unknown))}; "
                         f"valid keys: {', '.join(sorted(valid))}")
    given = [(key, _ALIASES.get(key, key), value) for key, value in config.items()]
    given += [(name, name, value) for name, value in flags.items() if value is not None]
    values = {}
    for key, name, value in given:
        try:
            values[name] = _cast(hints[name], value)
        except ValueError:
            raise ValueError(f"{key} has bad value {value!r}")
    return cls(**values)


#: Config keys of ``ccwt forward`` and ``ccwt inverse``.  The forward transform
#: takes its grid from the input file, so the grid keys are not among them.
_FORWARD_KEYS = [*(f.name for f in dataclasses.fields(ccwt.RunConfig)
                   if f.name not in ("grid_n", "grid_extent")), *_ALIASES]
_INVERSE_KEYS = ["wavelet_kind", "wavelet_coeffs"]


def _read_field_any(path: str) -> gridmod.Field:
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == gridmod.EWG1_MAGIC:
        return gridmod.read_field_ewg1(path)
    return gridmod.read_field_csv(path)


def _write_field(f: gridmod.Field, path: str, fmt: str) -> None:
    if fmt == "ewg":
        gridmod.write_field_ewg1(f, path)
    elif fmt == "csv":
        gridmod.write_field_csv(f, path)
    else:
        raise ValueError(f"unknown field format {fmt!r}; choose ewg or csv")


@click.group()
def main():
    """Complex continuous wavelet transforms and their verification suites."""


@main.group()
def wavelet():
    """Inspect mother wavelets."""


@wavelet.command("info")
@click.option("--kind", default="emhw", show_default=True, help="emhw or lg")
@click.option("--coeffs", default=None, help="comma-separated K_n for --kind lg")
@_guarded
def wavelet_info(kind, coeffs):
    """Print kind, coefficients, admissibility defect, and C'_psi."""
    w = wavelets.MotherWavelet.from_spec(kind, coeffs or ())
    defect = wavelets.admissibility_defect(w)
    c_prime = wavelets.c_psi_prime(w) if wavelets.is_admissible(w) else None  # before any output
    click.echo(f"kind: {kind.lower()}")
    click.echo("coeffs: " + ",".join(f"{c:g}" for c in w.coeffs))
    click.echo(f"admissibility_defect: {defect.real:.12g}")
    if c_prime is not None:
        click.echo(f"c_psi_prime: {c_prime:.12g}")
    else:
        click.echo("c_psi_prime: undefined")
        click.echo(
            f"warning: NonAdmissible wavelet (defect {defect.real:.6g}); "
            "transforms and constants require a zero-mean wavelet"
        )


_common_grid_options = [
    click.option("--grid-n", type=int, default=None, help="nodes per axis"),
    click.option("--grid-extent", type=float, default=None, help="half-width of the grid"),
]
_common_scale_options = [
    click.option("--scales", type=int, default=None, help="number of scale nodes"),
    click.option("--mu-min", type=float, default=None),
    click.option("--mu-max", type=float, default=None),
]
_wavelet_options = [
    click.option("--kind", default=None, help="wavelet kind (emhw or lg)"),
    click.option("--coeffs", default=None, help="comma-separated K_n for lg"),
]


def _add_options(options):
    def deco(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn

    return deco


@main.group("ccwt")
def ccwt_group():
    """Forward and inverse transforms on field files."""


@ccwt_group.command("forward")
@click.argument("input_path", metavar="INPUT")
@click.option("--output", required=True, help="EWC1 output path")
@click.option("--config", default=None, help="key=value config file")
@click.option("--engine", type=click.Choice(["direct", "fft"]), default=None)
@_add_options(_common_scale_options)
@_add_options(_wavelet_options)
@_guarded
def ccwt_forward(input_path, output, config, engine, scales, mu_min, mu_max,
                 kind, coeffs):
    """Transform a field file (EWG1 or CSV) into EWC1 coefficients."""
    cfg = load_settings(ccwt.RunConfig, read_config(config), _FORWARD_KEYS,
                        engine=engine, scale_count=scales, mu_min=mu_min,
                        mu_max=mu_max, wavelet_kind=kind, wavelet_coeffs=coeffs)
    field = _read_field_any(input_path)
    scales = cfg.scales()
    # Each plane goes to the file as it is made; the (S, n, n) cube never exists.
    planes = ccwt._forward_planes([field], cfg.wavelet(), scales,
                                  ccwt._is_fft_engine(cfg.engine))
    ccwt._write_ewc1(output, scales, field.grid, (plane for (plane,) in planes))
    click.echo(f"wrote {output}: {len(scales)} scales on "
               f"{field.grid.nx}x{field.grid.ny} grid")


@ccwt_group.command("inverse")
@click.argument("input_path", metavar="INPUT")
@click.option("--output", required=True, help="field output path")
@click.option("--config", default=None, help="key=value config file")
@click.option("--format", "fmt", type=click.Choice(["ewg", "csv"]), default="ewg",
              show_default=True)
@click.option("--reference", default=None,
              help="original field file; prints a reconstruction report")
@_add_options(_wavelet_options)
@_guarded
def ccwt_inverse(input_path, output, config, fmt, reference, kind, coeffs):
    """Invert an EWC1 coefficient file back to a field."""
    cfg = load_settings(ccwt.RunConfig, read_config(config), _INVERSE_KEYS,
                        wavelet_kind=kind, wavelet_coeffs=coeffs)
    w = cfg.wavelet()
    # Planes are read one at a time inside the per-scale tasks.
    with ccwt._ewc1_planes(input_path) as (scales, kgrid, plane):
        c_prime = wavelets.c_psi_prime(w)
        field = ccwt._inverse_planes(plane, scales, kgrid, w, c_prime)
    _write_field(field, output, fmt)
    click.echo(f"wrote {output}")
    if reference:
        ref = _read_field_any(reference)
        if not ref.grid.same_layout(field.grid):
            raise ValueError("reference grid does not match the reconstruction grid")
        num = np.sqrt(np.sum(np.abs(field.values - ref.values) ** 2))
        den = np.sqrt(np.sum(np.abs(ref.values) ** 2))
        rel = num / den if den > 0 else np.inf
        click.echo(f"reconstruction rel_l2: {rel:.6g}")


@main.command("verify")
@click.argument("suite", metavar="SUITE")
@click.option("--config", default=None, help="key=value config file")
@click.option("--output", default=None, help="CSV report path")
@_guarded
def verify_cmd(suite, config, output):
    """Run a verification suite: parseval, kernel, constants, oracles, or all."""
    if suite not in verify.SUITE_NAMES:
        click.echo(
            f"entwave: unknown suite {suite!r}\n"
            f"usage: entwave verify [parseval|kernel|constants|oracles|all] "
            f"[--config PATH] [--output CSV]",
            err=True,
        )
        sys.exit(EXIT_PRECONDITION)
    settings = load_settings(verify.VerifySettings, read_config(config))
    rows = verify.run_suite(suite, settings)
    click.echo(verify.format_table(rows))
    if output:
        verify.write_report_csv(rows, output)
        click.echo(f"wrote {output}")
    if not all(r.passed for r in rows):
        sys.exit(EXIT_TOLERANCE)


@main.group("fock")
def fock_group():
    """Sample two-mode states in the plane representation."""


@fock_group.command("sample")
@click.argument("state", metavar="STATE")
@click.option("--output", required=True, help="field output path")
@click.option("--format", "fmt", type=click.Choice(["ewg", "csv"]), default="ewg",
              show_default=True)
@_add_options(_common_grid_options)
@_guarded
def fock_sample(state, output, fmt, grid_n, grid_extent):
    """Write the plane representation of ``number:m,n`` or ``coherent:...``."""
    cfg = load_settings(ccwt.RunConfig, {}, grid_n=grid_n, grid_extent=grid_extent)
    field = fock.state_field(state, cfg.grid())
    _write_field(field, output, fmt)
    click.echo(f"wrote {output}")


if __name__ == "__main__":
    main()
