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


def _parse_coeffs(text: str) -> tuple:
    try:
        return tuple(float(c) for c in text.split(",") if c.strip())
    except ValueError:
        raise ValueError(f"bad coefficient list {text!r}")


def _build_wavelet(kind: str, coeffs: str | None) -> wavelets.MotherWavelet:
    kind = kind.lower()
    if kind == "emhw":
        if coeffs:
            parsed = _parse_coeffs(coeffs)
            if parsed != (0.5, 0.5):
                raise ValueError("emhw has fixed coefficients (1/2, 1/2)")
        return wavelets.emhw()
    if kind == "lg":
        if not coeffs:
            raise ValueError("--kind lg needs --coeffs c0,c1,...")
        return wavelets.laguerre_gaussian(_parse_coeffs(coeffs))
    raise ValueError(f"unknown wavelet kind {kind!r}; choose emhw or lg")


def read_config(path: str) -> dict:
    """Parse a plain-text key=value configuration file."""
    out = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise FileFormatError(f"{path}:{lineno}: expected key=value")
                out[key.strip()] = value.strip()
    except OSError as exc:
        raise FileFormatError(f"cannot read config {path}: {exc}")
    return out


def _check_config_keys(cfg: dict, valid) -> None:
    """A config key that no setting reads is an error, not a no-op."""
    unknown = [key for key in cfg if key not in valid]
    if unknown:
        raise ValueError(f"unknown config key {', '.join(map(repr, unknown))}; "
                         f"valid keys: {', '.join(sorted(valid))}")


@dataclasses.dataclass
class RunConfig:
    """Validated run parameters: config-file values, overridden by flags."""

    grid_n: int = 256
    grid_extent: float = 8.0
    scale_count: int = 64
    mu_min: float = 0.25
    mu_max: float = 4.0
    engine: str = "fft"
    wavelet_kind: str = "emhw"
    wavelet_coeffs: str | None = None

    def apply_config(self, cfg: dict) -> None:
        casts = {
            "grid_n": int, "grid_extent": float, "scales": int,
            "scale_count": int, "mu_min": float, "mu_max": float,
            "engine": str, "wavelet_kind": str, "wavelet_coeffs": str,
        }
        _check_config_keys(cfg, casts)
        for key, value in cfg.items():
            attr = "scale_count" if key == "scales" else key
            try:
                setattr(self, attr, casts[key](value))
            except ValueError:
                raise ValueError(f"config key {key} has bad value {value!r}")

    def apply_flags(self, **flags) -> None:
        for attr, value in flags.items():
            if value is not None:
                setattr(self, attr, value)

    def build_grid(self) -> gridmod.ComplexPlaneGrid:
        return gridmod.ComplexPlaneGrid.centered(self.grid_n, self.grid_extent)

    def build_scales(self) -> gridmod.ScaleGrid:
        return gridmod.ScaleGrid.log_spaced(self.scale_count, self.mu_min, self.mu_max)

    def build_wavelet(self) -> wavelets.MotherWavelet:
        return _build_wavelet(self.wavelet_kind, self.wavelet_coeffs)

    def validate(self) -> None:
        # Construct everything up front so bad parameters fail before work starts.
        self.build_grid()
        self.build_scales()
        self.build_wavelet()
        if self.engine not in ("direct", "fft"):
            raise ValueError(f"unknown engine {self.engine!r}; choose direct or fft")


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
    w = _build_wavelet(kind, coeffs)
    defect = wavelets.admissibility_defect(w)
    click.echo(f"kind: {w.kind.value}")
    click.echo("coeffs: " + ",".join(f"{c:g}" for c in w.coeffs))
    click.echo(f"admissibility_defect: {defect.real:.12g}")
    if wavelets.is_admissible(w):
        click.echo(f"c_psi_prime: {wavelets.c_psi_prime(w):.12g}")
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
    cfg = RunConfig()
    if config:
        cfg.apply_config(read_config(config))
    cfg.apply_flags(engine=engine, scale_count=scales, mu_min=mu_min,
                    mu_max=mu_max, wavelet_kind=kind, wavelet_coeffs=coeffs)
    cfg.validate()
    field = _read_field_any(input_path)
    run = ccwt.forward_fast if cfg.engine == "fft" else ccwt.forward
    coefficients = run(field, cfg.build_wavelet(), cfg.build_scales())
    ccwt.write_coefficients_ewc1(coefficients, output)
    click.echo(f"wrote {output}: {len(coefficients.scales)} scales on "
               f"{coefficients.kappa_grid.nx}x{coefficients.kappa_grid.ny} grid")


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
    cfg = RunConfig()
    if config:
        values = read_config(config)
        # the inverse reads only the wavelet; forward-only keys would be no-ops
        _check_config_keys(values, ("wavelet_kind", "wavelet_coeffs"))
        cfg.apply_config(values)
    cfg.apply_flags(wavelet_kind=kind, wavelet_coeffs=coeffs)
    w = cfg.build_wavelet()
    coefficients = ccwt.read_coefficients_ewc1(input_path)
    c_prime = wavelets.c_psi_prime(w)
    field = ccwt.inverse(coefficients, w, c_prime)
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
    settings = verify.VerifySettings()
    if config:
        cfg = read_config(config)
        _check_config_keys(cfg, {f.name for f in dataclasses.fields(verify.VerifySettings)})
        for key, value in cfg.items():
            current = getattr(settings, key)
            if isinstance(current, tuple):
                parts = tuple(p.strip() for p in value.split(";") if p.strip())
                if key == "wavelet_coeffs":
                    parts = tuple(float(p) for p in value.split(",") if p.strip())
                setattr(settings, key, parts)
            elif isinstance(current, bool):
                setattr(settings, key, value.lower() in ("1", "true", "yes"))
            elif isinstance(current, int):
                setattr(settings, key, int(value))
            elif isinstance(current, float):
                setattr(settings, key, float(value))
            else:
                setattr(settings, key, value)
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
    cfg = RunConfig()
    cfg.apply_flags(grid_n=grid_n, grid_extent=grid_extent)
    field = fock.state_field(state, cfg.build_grid())
    _write_field(field, output, fmt)
    click.echo(f"wrote {output}")


if __name__ == "__main__":
    main()
