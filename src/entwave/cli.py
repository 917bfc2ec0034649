"""Command-line front end.

Commands: ``wavelet info``, ``ccwt forward``, ``ccwt inverse``,
``verify <suite>``, ``fock sample``.  Exit codes: 0 success, 1 verify
tolerance failure, 2 malformed or unreadable input file, 3 precondition or
parse violation, unwritable output or failed allocation.  All outputs are
written atomically and are byte-identical for identical inputs and flags.
ENTWAVE_THREADS caps internal parallelism; a value that is not an integer
of at least 1 exits 3 before any input is read.
"""

from __future__ import annotations

import dataclasses
import functools
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

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except FileFormatError as exc:
            _fail(EXIT_BAD_FILE, str(exc))
        except OSError as exc:  # outputs raise OutputError, so this is a read
            _fail(EXIT_BAD_FILE, f"cannot read {exc.filename}: {exc.strerror}")
        except (EntwaveError, ValueError) as exc:
            _fail(EXIT_PRECONDITION, str(exc))
        except MemoryError as exc:
            _fail(EXIT_PRECONDITION, f"out of memory: {exc or 'an allocation failed'}")

    return wrapper


def _read_key_values(lines, source: str) -> dict:
    """Values of the ``key=value`` lines; blank lines and ``#`` comments are skipped.

    A later key overrides an earlier one.  A line without ``=`` raises
    FileFormatError naming ``source`` and the line number.
    """
    out = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            key, sep, value = line.partition("=")
            if not sep:
                raise FileFormatError(f"{source}:{lineno}: expected key=value")
            out[key.strip()] = value.strip()
    return out


def read_config(path: str | None) -> dict:
    """Parse a plain-text key=value configuration file; no path reads as empty."""
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            return _read_key_values(fh, path)
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
    # A cut EWG1 header goes to the EWG1 reader, which names the cut.
    if head and gridmod.EWG1_MAGIC.startswith(head):
        return gridmod.read_field_ewg1(path)
    return gridmod.read_field_csv(path)


#: Names of the field writers in ``grid`` by ``--format`` name.  Each is looked
#: up when a command runs, so a wrapper put on the module attribute sees it.
_FIELD_WRITERS = {"ewg": "write_field_ewg1", "csv": "write_field_csv"}

_format_option = click.option("--format", "fmt", type=click.Choice(list(_FIELD_WRITERS)),
                              default="ewg", show_default=True)


def _wavelet_options(fn):
    """``--kind`` and ``--coeffs``; unset, they keep the config or RunConfig value."""
    fn = click.option("--coeffs", help="comma-separated K_n for --kind lg")(fn)
    return click.option("--kind", help="wavelet kind: emhw or lg")(fn)


@click.group()
def main():
    """Complex continuous wavelet transforms and their verification suites."""


@main.group()
def wavelet():
    """Inspect mother wavelets."""


@wavelet.command("info")
@_wavelet_options
@_guarded
def wavelet_info(kind, coeffs):
    """Print kind, coefficients, admissibility defect, and C'_psi."""
    cfg = load_settings(ccwt.RunConfig, {}, wavelet_kind=kind, wavelet_coeffs=coeffs)
    w = cfg.wavelet()
    defect = wavelets.admissibility_defect(w)
    c_prime = wavelets.c_psi_prime(w) if wavelets.is_admissible(w) else None  # before any output
    click.echo(f"kind: {cfg.wavelet_kind.lower()}")
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


@main.group("ccwt")
def ccwt_group():
    """Forward and inverse transforms on field files."""


@ccwt_group.command("forward")
@click.argument("input_path", metavar="INPUT")
@click.option("--output", required=True, help="EWC1 output path")
@click.option("--config", default=None, help="key=value config file")
@click.option("--engine", help="transform engine")
@click.option("--scales", help="number of scale nodes")
@click.option("--mu-min")
@click.option("--mu-max")
@_wavelet_options
@_guarded
def ccwt_forward(input_path, output, config, engine, scales, mu_min, mu_max,
                 kind, coeffs):
    """Transform a field file (EWG1 or CSV) into EWC1 coefficients."""
    cfg = load_settings(ccwt.RunConfig, read_config(config), _FORWARD_KEYS,
                        engine=engine, scale_count=scales, mu_min=mu_min,
                        mu_max=mu_max, wavelet_kind=kind, wavelet_coeffs=coeffs)
    field = _read_field_any(input_path)
    scales = cfg.scales()
    # Each scale's task writes its plane at its offset in the file; no plane
    # leaves its task, and the (S, n, n) cube never exists.
    with ccwt._ewc1_writer(output, scales, field.grid) as write:
        ccwt._forward_planes([field], cfg.wavelet(), scales, ccwt._is_fft_engine(cfg.engine),
                             lambda s, planes: write(s, planes[0]))
    click.echo(f"wrote {output}: {len(scales)} scales on "
               f"{field.grid.nx}x{field.grid.ny} grid")


@ccwt_group.command("inverse")
@click.argument("input_path", metavar="INPUT")
@click.option("--output", required=True, help="field output path")
@click.option("--config", default=None, help="key=value config file")
@_format_option
@click.option("--reference", default=None,
              help="original field file; prints a reconstruction report")
@_wavelet_options
@_guarded
def ccwt_inverse(input_path, output, config, fmt, reference, kind, coeffs):
    """Invert an EWC1 coefficient file back to a field."""
    cfg = load_settings(ccwt.RunConfig, read_config(config), _INVERSE_KEYS,
                        wavelet_kind=kind, wavelet_coeffs=coeffs)
    w = cfg.wavelet()
    # Planes are read one at a time inside the per-scale tasks.
    with ccwt._ewc1_planes(input_path) as (scales, kgrid, plane):
        # A missing, cut or mismatched reference fails before any work or output.
        ref = _read_field_any(reference) if reference else None
        if ref is not None and not ref.grid.same_layout(kgrid):
            raise ValueError("reference grid does not match the reconstruction grid")
        c_prime = wavelets.c_psi_prime(w)
        field = ccwt._inverse_planes(plane, scales, kgrid, w, c_prime)
    getattr(gridmod, _FIELD_WRITERS[fmt])(field, output)
    click.echo(f"wrote {output}")
    if ref is not None:
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
@_format_option
@click.option("--grid-n", help="nodes per axis")
@click.option("--grid-extent", help="half-width of the grid")
@_guarded
def fock_sample(state, output, fmt, grid_n, grid_extent):
    """Write the plane representation of ``number:m,n`` or ``coherent:...``."""
    cfg = load_settings(ccwt.RunConfig, {}, grid_n=grid_n, grid_extent=grid_extent)
    field = fock.state_field(state, cfg.grid())
    getattr(gridmod, _FIELD_WRITERS[fmt])(field, output)
    click.echo(f"wrote {output}")


if __name__ == "__main__":
    main()
