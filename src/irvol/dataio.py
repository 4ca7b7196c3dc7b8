"""File formats: tick CSVs, synchronized returns, chain and summary files.

All floats are serialized with ``repr``, the shortest decimal string that
round-trips exactly, so read(write(x)) is bit-identical.  Tick timestamps
accept either epoch-seconds floats or ISO-8601 strings (naive timestamps
are taken as UTC so parsing does not depend on the local timezone).
"""

from __future__ import annotations

import csv
import json
import re
import warnings
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import numpy as np

from irvol.core import TIME_TOL, TickSeries
from irvol.mcmc.chain import McmcChain, McmcConfig, PosteriorSummary

CHAIN_FORMAT_VERSION = 1
TICK_HEADER = ["asset", "timestamp", "price"]


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


def read_ticks(path) -> list[TickSeries]:
    """Read a tick CSV (header asset,timestamp,price) into per-asset series.

    Rows are grouped by asset in order of first appearance and sorted by
    timestamp (stable); among duplicate (asset, timestamp) rows the last
    one in file order wins.
    """
    path = Path(path)
    groups: dict[str, list[tuple[float, float]]] = {}
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        if [cell.strip() for cell in header] != TICK_HEADER:
            raise ValueError(f"{path}: expected header 'asset,timestamp,price'")
        n_rows = 0
        for lineno, rowentry in enumerate(reader, start=2):
            if not rowentry:
                continue
            if len(rowentry) != 3:
                raise ValueError(f"{path}: line {lineno}: expected 3 fields, got {len(rowentry)}")
            asset = rowentry[0].strip()
            if not asset:
                raise ValueError(f"{path}: line {lineno}: empty asset id")
            try:
                ts = _parse_timestamp(rowentry[1])
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            try:
                price = float(rowentry[2])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: unparseable price {rowentry[2]!r}") from None
            if not (abs(ts) < np.inf and abs(price) < np.inf):
                raise ValueError(f"{path}: line {lineno}: number is not finite")
            if not price > 0:
                raise ValueError(f"{path}: line {lineno}: price must be positive")
            groups.setdefault(asset, []).append((ts, price))
            n_rows += 1
    if n_rows == 0:
        raise ValueError(f"{path}: no data rows")
    out = []
    for asset, rows in groups.items():
        rows.sort(key=lambda pair: pair[0])  # stable: file order breaks ties
        dedup: dict[float, float] = {}
        for ts, price in rows:
            dedup[ts] = price  # duplicate timestamps keep the last row
        ts_arr = np.array(list(dedup.keys()))
        px_arr = np.array(list(dedup.values()))
        out.append(TickSeries(asset, ts_arr, px_arr))
    return out


def write_ticks(series: Sequence[TickSeries], path) -> None:
    """Write tick series to CSV; the inverse of ``read_ticks``."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TICK_HEADER)
        for one in series:
            for ts, price in zip(one.timestamps, one.prices):
                writer.writerow([one.asset_id, _fmt(ts), _fmt(price)])


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
    gaps = np.diff(ts)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["timestamp", "gap"] + [f"r_{a}" for a in asset_ids])
        for j in range(ts.size):
            gap_field = "" if j == 0 else _fmt(gaps[j - 1])
            writer.writerow([_fmt(ts[j]), gap_field] + [_fmt(v) for v in r[:, j]])


def read_returns(path):
    """Read a synchronized-returns file.

    Returns (timestamps (n,), gaps (n-1,), returns (p, n), asset_ids).
    Every number must be finite, and the gap column must agree with the
    timestamp differences to within ``TIME_TOL``.
    """
    path = Path(path)
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        if len(header) < 3 or header[0] != "timestamp" or header[1] != "gap":
            raise ValueError(f"{path}: expected header 'timestamp,gap,r_<asset>,...'")
        assets = []
        for cell in header[2:]:
            if not cell.startswith("r_"):
                raise ValueError(f"{path}: malformed return column {cell!r}")
            assets.append(cell[2:])
        ts_list: list[float] = []
        gap_list: list[float] = []
        rows: list[list[float]] = []
        linenos: list[int] = []
        for lineno, rowentry in enumerate(reader, start=2):
            if not rowentry:
                continue
            if len(rowentry) != len(header):
                raise ValueError(f"{path}: line {lineno}: expected {len(header)} fields")
            try:
                if ts_list:  # the first data row has no gap
                    gap_list.append(float(rowentry[1]))
                ts_list.append(float(rowentry[0]))
                rows.append([float(cell) for cell in rowentry[2:]])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: unparseable number") from None
            linenos.append(lineno)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    ts = np.array(ts_list)
    gaps = np.array(gap_list)
    r = np.array(rows).T
    finite = np.isfinite(ts) & np.isfinite(r).all(axis=0)
    finite[1:] &= np.isfinite(gaps)
    if not finite.all():
        raise ValueError(f"{path}: line {linenos[int(np.argmin(finite))]}: number is not finite")
    if gaps.size and float(np.max(np.abs(gaps - np.diff(ts)))) > TIME_TOL:
        raise ValueError(f"{path}: gap column disagrees with timestamps")
    return ts, gaps, r, assets


def write_chain(chain: McmcChain, path, extra_meta: dict | None = None) -> None:
    """Write chain draws to CSV plus a JSON metadata sidecar.

    The sidecar (<path>.meta.json) echoes the config, seed, and acceptance
    rates; ``extra_meta`` entries are merged in (useful for recording the
    gap scale factor a fit used).
    """
    path = Path(path)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(chain.names)
        for row in chain.draws:
            writer.writerow([_fmt(v) for v in row])
    meta = {
        "format_version": CHAIN_FORMAT_VERSION,
        "names": list(chain.names),
        "n_draws": chain.n_draws,
        "acceptance_rates": {k: float(v) for k, v in chain.acceptance_rates.items()},
        "config": None,
        "seed": None,
    }
    if chain.config is not None:
        meta["config"] = {
            "n_iterations": chain.config.n_iterations,
            "burn_in": chain.config.burn_in,
            "thin": chain.config.thin,
            "rng_seed": chain.config.rng_seed,
            "target_accept_scalar": chain.config.target_accept_scalar,
            "target_accept_block": chain.config.target_accept_block,
            "adapt_interval": chain.config.adapt_interval,
            "latent_stride": chain.config.latent_stride,
            "store_latent": chain.config.store_latent,
            "progress_every": chain.config.progress_every,
        }
        meta["seed"] = chain.config.rng_seed
    if extra_meta:
        meta.update(extra_meta)
    with open(chain_meta_path(path), "w") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")


def chain_meta_path(path) -> Path:
    return Path(str(path) + ".meta.json")


def read_chain_meta(path) -> dict | None:
    """Load the sidecar metadata for a chain file, or None if absent."""
    meta_path = chain_meta_path(path)
    if not meta_path.exists():
        return None
    with open(meta_path) as handle:
        return json.load(handle)


def read_chain(path) -> McmcChain:
    """Read a chain CSV (and its sidecar when present) back into memory.

    A missing sidecar degrades gracefully: the chain loads with a warning
    and no config.  A sidecar with an unknown format version, or a draw
    row whose width disagrees with the header, is an error.
    """
    path = Path(path)
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty chain file")
        names = tuple(header)
        rows = []
        for lineno, rowentry in enumerate(reader, start=2):
            if not rowentry:
                continue
            if len(rowentry) != len(names):
                raise ValueError(
                    f"{path}: line {lineno}: row width {len(rowentry)} does not match "
                    f"header width {len(names)}"
                )
            rows.append([float(cell) for cell in rowentry])
    draws = np.array(rows) if rows else np.empty((0, len(names)))
    meta = read_chain_meta(path)
    config = None
    rates: dict[str, float] = {}
    if meta is None:
        warnings.warn(f"{path}: metadata sidecar missing; config unavailable")
    else:
        version = meta.get("format_version")
        if version != CHAIN_FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported chain format version {version!r}")
        if meta.get("names") is not None and tuple(meta["names"]) != names:
            raise ValueError(f"{path}: sidecar names disagree with the chain header")
        rates = {k: float(v) for k, v in meta.get("acceptance_rates", {}).items()}
        if meta.get("config"):
            config = McmcConfig(**meta["config"])
    return McmcChain(names, draws, rates, config)


def write_summary(summary: PosteriorSummary, path,
                  true_values: dict[str, float] | None = None) -> None:
    """Write a posterior-summary table with 4-decimal formatting.

    One row per parameter with mean, sd, and the stored quantiles; when
    ``true_values`` is given a true_value column is included (simulation
    studies).  Parameter names must be ASCII.
    """
    names = summary.names
    for name in names:
        if not name.isascii():
            raise ValueError(f"parameter name {name!r} is not ASCII")
    probs = sorted(summary[names[0]].quantiles) if names else []
    q_cols = [f"q{100 * q:g}" for q in probs]
    header = ["parameter"]
    if true_values is not None:
        header.append("true_value")
    header += ["mean", "sd"] + q_cols
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for name in names:
            stats = summary[name]
            rowentry = [name]
            if true_values is not None:
                truth = true_values.get(name)
                rowentry.append("" if truth is None else f"{truth:.4f}")
            rowentry += [f"{stats.mean:.4f}", f"{stats.sd:.4f}"]
            rowentry += [f"{stats.quantiles[q]:.4f}" for q in probs]
            writer.writerow(rowentry)
