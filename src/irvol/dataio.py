"""File formats: tick CSVs, synchronized returns, chains, summaries, forecasts, JSON.

All floats are serialized with ``repr``, the shortest decimal string that
round-trips exactly, so read(write(x)) is bit-identical.  Tick timestamps
accept either epoch-seconds floats or ISO-8601 strings (naive timestamps
are taken as UTC so parsing does not depend on the local timezone).
"""

from __future__ import annotations

import csv
import json
import re
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from irvol.core import TIME_TOL, TickSeries
from irvol.mcmc.chain import McmcChain, McmcConfig, ParameterSummary

CHAIN_FORMAT_VERSION = 3
TICK_HEADER = ["asset", "timestamp", "price"]
# a forecast file's columns; ``read_forecasts`` reads FORECAST_COLUMNS of them
FORECAST_HEADER = ("model", "asset", "horizon", "h_mean", "h_q2.5", "h_q97.5",
                   "r2_forecast", "absr_forecast", "vol_forecast")
FORECAST_COLUMNS = FORECAST_HEADER[:3] + FORECAST_HEADER[6:]


def _fmt(value: float) -> str:
    return repr(float(value))


# fromisoformat on 3.10 only accepts 3- or 6-digit fractional seconds
_ISO_FRACTION = re.compile(r"^(.+:\d{2})\.(\d+)((?:[+-]\d{2}:\d{2})?)$")


def _parse_timestamp(text: str) -> float:
    text = text.strip()
    try:
        return float(text)
    except ValueError:
        pass
    iso = text.replace("Z", "+00:00")
    try:
        moment = datetime.fromisoformat(iso)
    except ValueError:
        match = _ISO_FRACTION.match(iso)
        if match is None:
            raise ValueError(f"unparseable timestamp {text!r}") from None
        padded = f"{match.group(1)}.{match.group(2)[:6].ljust(6, '0')}{match.group(3)}"
        try:
            moment = datetime.fromisoformat(padded)
        except ValueError:
            raise ValueError(f"unparseable timestamp {text!r}") from None
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    return moment.timestamp()


def _read_csv(path, row_parser) -> Iterator:
    """Yield a CSV file's header, then (line number, parsed row) for each data row.

    ``row_parser(header)`` rejects a wrong header with a ``ValueError`` and
    returns the function that parses one row's cells.  Blank rows are
    skipped; every other row must be as wide as the header, and there must
    be one.  Each error names the file, and the line for a row or a CSV fault.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty file")
            try:
                parse = row_parser(header)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
            yield header
            lineno = None
            for cells in reader:
                if not cells:
                    continue
                lineno = reader.line_num
                try:
                    if len(cells) != len(header):
                        raise ValueError(f"row width {len(cells)} does not match header "
                                         f"width {len(header)}")
                    row = parse(cells)
                except ValueError as exc:
                    raise ValueError(f"{path}: line {lineno}: {exc}") from None
                yield lineno, row
        except csv.Error as exc:  # such as a cell over csv.field_size_limit()
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    if lineno is None:
        raise ValueError(f"{path}: no data rows")


def _floats(cells) -> list[float]:
    return [float(cell) for cell in cells]


def _tick_row(cells) -> tuple[str, float, float]:
    asset = cells[0].strip()
    if not asset:
        raise ValueError("empty asset id")
    ts = _parse_timestamp(cells[1])
    price = float(cells[2])
    if not (abs(ts) < np.inf and abs(price) < np.inf):
        raise ValueError("number is not finite")
    if not price > 0:
        raise ValueError("price must be positive")
    return asset, ts, price


def _tick_parser(header):
    if [cell.strip() for cell in header] != TICK_HEADER:
        raise ValueError("expected header 'asset,timestamp,price'")
    return _tick_row


def read_ticks(path) -> list[TickSeries]:
    """Read a tick CSV (header asset,timestamp,price) into per-asset series.

    Rows are grouped by asset in order of first appearance and sorted by
    timestamp (stable); among duplicate (asset, timestamp) rows the last
    one in file order wins.
    """
    rows = _read_csv(path, _tick_parser)
    next(rows)
    groups: dict[str, list[tuple[float, float]]] = {}
    for _, (asset, ts, price) in rows:
        groups.setdefault(asset, []).append((ts, price))
    out = []
    for asset, pairs in groups.items():
        pairs.sort(key=lambda pair: pair[0])  # stable: file order breaks ties
        dedup: dict[float, float] = {}
        for ts, price in pairs:
            dedup[ts] = price  # duplicate timestamps keep the last row
        ts_arr = np.array(list(dedup.keys()))
        px_arr = np.array(list(dedup.values()))
        out.append(TickSeries(asset, ts_arr, px_arr))
    return out


def write_returns(path, timestamps, returns, asset_ids: Sequence[str]) -> None:
    """Write a synchronized-returns file.

    Columns are timestamp, gap, then one r_<asset> column per asset; the
    first row's gap field is empty (no observation precedes it).
    ``returns`` is (p, n) or (n,) matching ``timestamps`` of length n.
    """
    ts = np.asarray(timestamps, dtype=float)
    r = np.atleast_2d(np.asarray(returns, dtype=float))
    if r.shape[1] != ts.size:
        raise ValueError("returns and timestamps lengths disagree")
    if len(asset_ids) != r.shape[0]:
        raise ValueError("need one asset id per return row")
    for asset in asset_ids:
        if not asset.isascii():
            raise ValueError(f"asset id {asset!r} is not ASCII")
    header = ["timestamp", "gap"] + [f"r_{a}" for a in asset_ids]
    _returns_parser(header)  # refuse what read_returns would
    gaps = np.diff(ts)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for j in range(ts.size):
            gap_field = "" if j == 0 else _fmt(gaps[j - 1])
            writer.writerow([_fmt(ts[j]), gap_field] + [_fmt(v) for v in r[:, j]])


def _returns_row(cells) -> tuple[float, float, list[float]]:
    # the first row has no gap; an empty gap on a later row is nan and fails
    # read_returns' finite check
    return float(cells[0]), float(cells[1]) if cells[1] else np.nan, _floats(cells[2:])


def _returns_parser(header):
    if len(header) < 3 or header[0] != "timestamp" or header[1] != "gap":
        raise ValueError("expected header 'timestamp,gap,r_<asset>,...'")
    assets = [cell[2:] for cell in header[2:]]
    for k, cell in enumerate(header[2:]):
        if not cell.startswith("r_"):
            raise ValueError(f"malformed return column {cell!r}")
        if not assets[k] or assets[k] in assets[:k]:  # each column names one asset
            raise ValueError(f"{'duplicate' if assets[k] else 'empty'} asset id {assets[k]!r}")
    return _returns_row


def read_returns(path):
    """Read a synchronized-returns file.

    Returns (timestamps (n,), gaps (n-1,), returns (p, n), asset_ids).
    Every number must be finite, and each gap must agree with its timestamp
    difference to within ``TIME_TOL`` plus two ulp of the larger timestamp.
    """
    rows = _read_csv(path, _returns_parser)
    header = next(rows)
    linenos, rows = zip(*rows)
    ts = np.array([row[0] for row in rows])
    gaps = np.array([row[1] for row in rows[1:]])
    r = np.array([row[2] for row in rows]).T
    finite = np.isfinite(ts) & np.isfinite(r).all(axis=0)
    finite[1:] &= np.isfinite(gaps)
    if not finite.all():
        raise ValueError(f"{path}: line {linenos[int(np.argmin(finite))]}: number is not finite")
    tol = TIME_TOL + 2.0 * np.spacing(np.maximum(np.abs(ts[1:]), np.abs(ts[:-1])))
    if np.any(np.abs(gaps - np.diff(ts)) > tol):
        raise ValueError(f"{path}: gap column disagrees with timestamps")
    return ts, gaps, r, [cell[2:] for cell in header[2:]]


def write_json(path, payload: dict) -> None:
    """Write ``payload`` as key-sorted, indented JSON ending in a newline."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_json(path) -> dict:
    """Read a JSON file that holds one object; a malformed one names the file."""
    with open(path) as handle:
        try:
            payload = json.load(handle)
        except ValueError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return payload


def _check_scale_factor(factor) -> None:
    if type(factor) not in (int, float) or not 0.0 < factor < np.inf:
        raise ValueError(f"gap_scale_factor: {factor!r} is not a positive number")


def write_chain(chain: McmcChain, path, *, model: str, gap_scale_factor: float,
                n_obs_fit: int, asset_ids: Sequence[str], data_file: str) -> None:
    """Write chain draws to CSV plus a JSON metadata sidecar.

    The sidecar (<path>.meta.json) echoes the names, config, seed, and
    acceptance rates, and records the fit: its model, the factor its gaps
    were divided by, its number of observations, its asset ids and the
    data file it read, so ``read_chain`` can check the chain against the
    run that reads it.
    """
    _check_scale_factor(gap_scale_factor)
    path = Path(path)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(chain.names)
        for row in chain.draws:
            writer.writerow([_fmt(v) for v in row])
    write_json(chain_meta_path(path), {
        "format_version": CHAIN_FORMAT_VERSION,
        "names": list(chain.names),
        "n_draws": chain.n_draws,
        "acceptance_rates": {k: float(v) for k, v in chain.acceptance_rates.items()},
        "config": vars(chain.config),
        "seed": chain.config.rng_seed,
        "model": model,
        "gap_scale_factor": gap_scale_factor,
        "n_obs_fit": n_obs_fit,
        "asset_ids": list(asset_ids),
        "data_file": data_file,
    })


def chain_meta_path(path) -> Path:
    return Path(str(path) + ".meta.json")


def _entry(meta: dict, key: str):
    if meta.get(key) is None:
        raise ValueError(f"{key}: missing")
    return meta[key]


def read_chain(path, **expect) -> tuple[McmcChain, dict]:
    """Read a chain CSV back into memory, with the entries of its sidecar.

    The sidecar is required: a missing one raises ``FileNotFoundError``.
    Each other error is a ``ValueError`` naming the file it is in: a draw
    row whose width disagrees with the header, or a sidecar with an
    unknown format version, names or ``n_draws`` that disagree with the
    CSV, a config ``McmcConfig`` rejects, a ``gap_scale_factor`` that is
    not a positive number, or an entry that is missing, null or differs
    from its value in ``expect``.
    """
    rows = _read_csv(path, lambda header: _floats)
    names = tuple(next(rows))
    draws = np.array([row for _, row in rows])
    meta_path = chain_meta_path(path)
    meta = read_json(meta_path)
    try:
        version = meta.get("format_version")
        if version != CHAIN_FORMAT_VERSION:
            raise ValueError(f"unsupported chain format version {version!r}")
        if tuple(_entry(meta, "names")) != names:
            raise ValueError("sidecar names disagree with the chain header")
        if _entry(meta, "n_draws") != len(draws):
            raise ValueError(f"n_draws: {meta['n_draws']!r}, but the chain has {len(draws)} rows")
        rates = {k: float(v) for k, v in _entry(meta, "acceptance_rates").items()}
        config = McmcConfig(**_entry(meta, "config"))
        _check_scale_factor(_entry(meta, "gap_scale_factor"))
        for key, wanted in expect.items():
            if _entry(meta, key) != wanted:
                raise ValueError(f"{key}: the chain was fit with {meta[key]!r}, "
                                 f"but this run has {wanted!r}")
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"{meta_path}: {exc}") from None
    return McmcChain(names, draws, rates, config), meta


def write_summary(summary: dict[str, ParameterSummary], path) -> None:
    """Write a posterior-summary table with 4-decimal formatting.

    One row per parameter with mean, sd, and the stored quantiles.
    Parameter names must be ASCII.
    """
    for name in summary:
        if not name.isascii():
            raise ValueError(f"parameter name {name!r} is not ASCII")
    probs = sorted(next(iter(summary.values())).quantiles) if summary else []
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["parameter", "mean", "sd"] + [f"q{100 * q:g}" for q in probs])
        for name, stats in summary.items():
            writer.writerow([name, f"{stats.mean:.4f}", f"{stats.sd:.4f}"]
                            + [f"{stats.quantiles[q]:.4f}" for q in probs])


def _forecast_parser(header):
    if not set(FORECAST_COLUMNS).issubset(header):
        raise ValueError("not a forecast file")
    index = [header.index(name) for name in FORECAST_COLUMNS]

    def parse(cells) -> dict:
        model, asset, horizon, *values = (cells[k] for k in index)
        horizon, values = int(horizon), _floats(values)
        if horizon < 1:
            raise ValueError(f"horizon {horizon} is below 1")
        if not np.isfinite(values).all():
            raise ValueError("number is not finite")
        return {"model": model, "asset": asset, "horizon": horizon,
                **dict(zip(FORECAST_COLUMNS[3:], values))}

    return parse


def write_forecasts(path, rows) -> None:
    """Write a forecast file: ``FORECAST_HEADER``, then per entry of ``rows``
    its model, asset and horizon and its six forecast values in header
    order, each as its ``repr``."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(FORECAST_HEADER)
        for model, asset, horizon, *values in rows:
            writer.writerow([model, asset, horizon] + [_fmt(v) for v in values])


def read_forecasts(path) -> list[dict]:
    """Read a forecast file's rows: model, asset, integer horizon and the
    three forecast columns as floats, by column name.

    Every row must name the first row's model and its own (asset, horizon),
    have a horizon of at least 1 and finite forecasts; an error names the
    file and the line.
    """
    rows = _read_csv(path, _forecast_parser)
    next(rows)
    out, seen = [], set()
    for lineno, row in rows:
        if out and row["model"] != out[0]["model"]:
            raise ValueError(f"{path}: line {lineno}: model {row['model']!r} is not the "
                             f"file's model {out[0]['model']!r}")
        if (row["asset"], row["horizon"]) in seen:
            raise ValueError(f"{path}: line {lineno}: a second row for asset {row['asset']!r} "
                             f"at horizon {row['horizon']}")
        seen.add((row["asset"], row["horizon"]))
        out.append(row)
    return out
