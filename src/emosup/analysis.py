"""Modality-gap quantification and data-driven negative-pool derivation.

Ships read-only reference tables (similarity statistics measured with a
real vision-language encoder on a large expression corpus) so synthetic
measurements and derived pools can be compared against published
numbers without re-running the original extraction.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Mapping

import numpy as np

from .corpus import NegativePoolTable
from .emotions import EMOTIONS, EmotionLabel, parse_emotion
from .errors import ContractError, write_csv
from .numerics import EPS_NORM, as_vector


@dataclass
class CrossModalSimilarityMatrix:
    """7x7 mean cosine similarities, image emotion by text emotion.

    Both axes are indexed by emotion code; ``n_per_cell`` records how many
    image samples entered each cell.
    """

    values: np.ndarray
    n_per_cell: np.ndarray

    def __post_init__(self):
        n = len(EMOTIONS)
        self.values = np.asarray(self.values, dtype=np.float64)
        self.n_per_cell = np.asarray(self.n_per_cell, dtype=np.int64)
        if self.values.shape != (n, n) or self.n_per_cell.shape != (n, n):
            raise ContractError(f"matrix must be {n}x{n}")
        if not np.isfinite(self.values).all():
            raise ContractError("similarities must be finite")
        if np.any(self.values < -1 - 1e-9) or np.any(self.values > 1 + 1e-9):
            raise ContractError("similarities must lie in [-1, 1]")

    def cell(self, image_emotion: EmotionLabel, text_emotion: EmotionLabel) -> float:
        return float(self.values[int(image_emotion), int(text_emotion)])

    def to_csv(self, path: str | Path) -> None:
        write_csv(path, ["image_emotion"] + [e.name for e in EMOTIONS],
                  ([e.name, *row] for e, row in zip(EMOTIONS, self.values.tolist())))

    def to_json_dict(self) -> dict:
        return {"rows": {i.name: {j.name: float(self.values[int(i), int(j)])
                                  for j in EMOTIONS} for i in EMOTIONS},
                "n_per_cell": {i.name: int(self.n_per_cell[int(i), 0]) for i in EMOTIONS}}

    @staticmethod
    def from_json_dict(d: dict) -> "CrossModalSimilarityMatrix":
        """Inverse of ``to_json_dict``. ``n_per_cell`` may also be one count
        for every cell; missing cells and counts are 0."""
        n = len(EMOTIONS)
        values = np.zeros((n, n))
        for i_name, row in d["rows"].items():
            for j_name, v in row.items():
                values[int(parse_emotion(i_name)), int(parse_emotion(j_name))] = v
        counts = np.zeros((n, n), dtype=np.int64)
        per_cell = d.get("n_per_cell", 0)
        if isinstance(per_cell, dict):
            for name, count in per_cell.items():
                counts[int(parse_emotion(name))] = int(count)
        else:
            counts[:] = int(per_cell)
        return CrossModalSimilarityMatrix(values, counts)


@dataclass
class GapReport:
    """Per-emotion within-image cohesion vs image-text matching similarity.

    ``gap = s_image - s_match`` holds exactly per emotion, and the
    averages are plain means over the seven emotions.
    """

    s_image: np.ndarray
    s_match: np.ndarray
    gap: np.ndarray

    def __post_init__(self):
        n = len(EMOTIONS)
        self.s_image = as_vector(self.s_image, dim=n, name="s_image")
        self.s_match = as_vector(self.s_match, dim=n, name="s_match")
        self.gap = as_vector(self.gap, dim=n, name="gap")
        if np.max(np.abs(self.gap - (self.s_image - self.s_match))) > 1e-12:
            raise ContractError("gap row inconsistent with s_image - s_match")

    @property
    def avg_s_image(self) -> float:
        return float(self.s_image.mean())

    @property
    def avg_s_match(self) -> float:
        return float(self.s_match.mean())

    @property
    def avg_gap(self) -> float:
        return float(self.gap.mean())

    def to_json_dict(self) -> dict:
        return {"rows": {e.name: {"s_image": float(self.s_image[int(e)]),
                                  "s_match": float(self.s_match[int(e)]),
                                  "gap": float(self.gap[int(e)])} for e in EMOTIONS},
                "average": {"s_image": self.avg_s_image, "s_match": self.avg_s_match,
                            "gap": self.avg_gap}}

    def to_csv(self, path: str | Path) -> None:
        write_csv(path, ["emotion", "s_image", "s_match", "gap"],
                  [*zip([e.name for e in EMOTIONS], self.s_image, self.s_match, self.gap),
                   ("average", self.avg_s_image, self.avg_s_match, self.avg_gap)])


def _validate_inputs(features_by_emotion: Mapping, text_embeddings: Mapping,
                     min_images: int) -> dict[EmotionLabel, np.ndarray]:
    grouped: dict[EmotionLabel, np.ndarray] = {}
    for e in EMOTIONS:
        if e not in features_by_emotion:
            raise ContractError(f"missing image features for {e.name}")
        if e not in text_embeddings:
            raise ContractError(f"missing text embedding for {e.name}")
        vecs = np.asarray(features_by_emotion[e], dtype=np.float64)
        if vecs.ndim != 2 or vecs.shape[0] < min_images:
            raise ContractError(f"{e.name} needs >= {min_images} image features")
        grouped[e] = vecs
    return grouped


def _unit_rows_or_zero(vecs: np.ndarray) -> np.ndarray:
    """Row-normalize; (near-)zero rows become zero rows so they contribute
    similarity 0, matching the degenerate-input convention."""
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    safe = np.where(norms < EPS_NORM, 1.0, norms)
    out = vecs / safe
    out[norms[:, 0] < EPS_NORM] = 0.0
    return out


def modality_gap_report(features_by_emotion: Mapping[EmotionLabel, np.ndarray],
                        text_embeddings: Mapping[EmotionLabel, np.ndarray]) -> GapReport:
    """Within-class image cohesion vs image-text matching, per emotion.

    ``s_image`` averages cosine similarity over distinct image pairs
    (i < j, self-pairs excluded); ``s_match`` averages image-to-text
    similarity against the emotion's single text embedding.
    """
    grouped = _validate_inputs(features_by_emotion, text_embeddings, min_images=2)
    s_image = np.zeros(len(EMOTIONS))
    s_match = np.zeros(len(EMOTIONS))
    for e, vecs in grouped.items():
        text = as_vector(text_embeddings[e], name=f"text[{e.name}]")
        unit = _unit_rows_or_zero(vecs)
        n = unit.shape[0]
        # sum over i<j of cos = (|sum of units|^2 - sum of |unit|^2) / 2
        total = unit.sum(axis=0)
        self_sims = float(np.sum(unit * unit))
        pair_sum = (float(total @ total) - self_sims) / 2.0
        s_image[int(e)] = pair_sum / (n * (n - 1) / 2)
        s_match[int(e)] = float(np.mean(unit @ _unit_rows_or_zero(text[None, :])[0]))
    return GapReport(s_image, s_match, s_image - s_match)


def cross_modal_matrix(features_by_emotion: Mapping[EmotionLabel, np.ndarray],
                       text_embeddings: Mapping[EmotionLabel, np.ndarray]
                       ) -> CrossModalSimilarityMatrix:
    """Mean cosine similarity between each image emotion and each text prompt."""
    grouped = _validate_inputs(features_by_emotion, text_embeddings, min_images=2)
    n = len(EMOTIONS)
    values = np.zeros((n, n))
    counts = np.zeros((n, n), dtype=np.int64)
    unit_texts = {j: _unit_rows_or_zero(
        as_vector(text_embeddings[j], name=f"text[{j.name}]")[None, :])[0]
        for j in EMOTIONS}
    for i, vecs in grouped.items():
        unit = _unit_rows_or_zero(vecs)
        for j in EMOTIONS:
            values[int(i), int(j)] = float(np.mean(unit @ unit_texts[j]))
            counts[int(i), int(j)] = vecs.shape[0]
    return CrossModalSimilarityMatrix(values, counts)


def derive_negative_pools(matrix: CrossModalSimilarityMatrix,
                          k: int) -> NegativePoolTable:
    """Exclude each image emotion's top-k most similar non-matching prompts.

    Ties are broken toward excluding the lower emotion code. k may be 0
    (keep all six others) up to 5 (leave a single negative).
    """
    if not 0 <= k <= 5:
        raise ContractError(f"k must lie in [0, 5], got {k} "
                            "(k > 5 would empty a pool)")
    pools = {}
    for i in EMOTIONS:
        off_diag = [(j, matrix.cell(i, j)) for j in EMOTIONS if j != i]
        off_diag.sort(key=lambda item: (-item[1], int(item[0])))
        excluded = {j for j, _ in off_diag[:k]}
        pools[i] = frozenset(j for j, _ in off_diag if j not in excluded)
    return NegativePoolTable(pools)


def pool_discrepancies(derived: NegativePoolTable, reference: NegativePoolTable
                       ) -> dict[EmotionLabel, dict]:
    """Emotions whose derived pool differs from the reference pool."""
    out = {}
    for e in EMOTIONS:
        if derived.pool[e] != reference.pool[e]:
            out[e] = {"derived": sorted(x.name for x in derived.pool[e]),
                      "reference": sorted(x.name for x in reference.pool[e])}
    return out


# ---------------------------------------------------------------------------
# bundled reference tables
# ---------------------------------------------------------------------------

def _load_reference_json(filename: str) -> dict:
    data_dir = resources.files("emosup").joinpath("data")
    raw = data_dir.joinpath(filename).read_bytes()
    sums = json.loads(data_dir.joinpath("checksums.json").read_text())
    digest = hashlib.sha256(raw).hexdigest()
    if sums.get(filename) != digest:
        raise ContractError(f"bundled table {filename} fails its checksum")
    return json.loads(raw.decode())


def load_reference_matrix() -> CrossModalSimilarityMatrix:
    """The bundled cross-modal similarity matrix (1000 images per cell)."""
    return CrossModalSimilarityMatrix.from_json_dict(
        _load_reference_json("reference_crossmodal_matrix.json"))


@dataclass(frozen=True)
class ReferenceGapTable:
    """The bundled gap table as printed (3-decimal values plus averages)."""

    rows: dict[EmotionLabel, tuple[float, float, float]]
    average: tuple[float, float, float]


def load_reference_gap_table() -> ReferenceGapTable:
    spec = _load_reference_json("reference_gap_table.json")
    rows = {parse_emotion(name): (r["s_image"], r["s_match"], r["gap"])
            for name, r in spec["rows"].items()}
    avg = spec["average"]
    return ReferenceGapTable(rows, (avg["s_image"], avg["s_match"], avg["gap"]))


def load_reference_pools() -> NegativePoolTable:
    """The bundled published negative pools (kept verbatim, including the
    two rows that deviate from strict top-1 exclusion)."""
    spec = _load_reference_json("reference_negative_pools.json")
    return NegativePoolTable.from_names(spec["pools"])


def format_gap_report(report: GapReport,
                      reference: ReferenceGapTable | None = None) -> str:
    """Human-readable gap table, optionally diffed against the reference."""
    lines = [f"{'emotion':<10} {'s_image':>8} {'s_match':>8} {'gap':>8}"
             + ("" if reference is None else f" {'ref_gap':>8} {'delta':>8}")]
    for e in EMOTIONS:
        row = (f"{e.name:<10} {report.s_image[int(e)]:>8.3f} "
               f"{report.s_match[int(e)]:>8.3f} {report.gap[int(e)]:>8.3f}")
        if reference is not None:
            ref_gap = reference.rows[e][2]
            row += f" {ref_gap:>8.3f} {report.gap[int(e)] - ref_gap:>8.3f}"
        lines.append(row)
    avg = (f"{'average':<10} {report.avg_s_image:>8.3f} {report.avg_s_match:>8.3f} "
           f"{report.avg_gap:>8.3f}")
    if reference is not None:
        avg += f" {reference.average[2]:>8.3f} {report.avg_gap - reference.average[2]:>8.3f}"
    lines.append(avg)
    return "\n".join(lines)
