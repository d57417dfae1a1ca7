"""Standard-cell timing characterization (NLDM-style tables + statistics).

Layers: :mod:`~repro.charlib.tables` (bilinear lookup tables),
:mod:`~repro.charlib.characterize` (measurement primitives, serial
nominal path, streamed arc statistics), :mod:`~repro.charlib.arcs`
(per-cell arc adapters: INV/NAND2/DFF), :mod:`~repro.charlib.workload`
(the sharded grid workload behind the ``Characterize`` /
``CharacterizeLibrary`` specs), and :mod:`~repro.charlib.liberty`
(Liberty writer + reader).
"""

from repro.charlib.tables import LookupTable2D
from repro.charlib.characterize import (
    ArcSamples,
    CellTiming,
    CharacterizationError,
    characterize_arcs,
    characterize_cell,
    characterize_cell_statistics,
)
from repro.charlib.arcs import (
    ADAPTERS,
    Arc,
    ArcAdapter,
    DFFArcs,
    InverterArcs,
    LibertyCell,
    Nand2Arcs,
    get_adapter,
)
from repro.charlib.workload import (
    ArcPointStats,
    CharGridTask,
    GridPointResult,
    LibraryTiming,
    assemble_library,
)
from repro.charlib.liberty import parse_liberty, write_liberty

__all__ = [
    "LookupTable2D",
    "CellTiming",
    "CharacterizationError",
    "ArcSamples",
    "characterize_arcs",
    "characterize_cell",
    "characterize_cell_statistics",
    "Arc",
    "ArcAdapter",
    "LibertyCell",
    "InverterArcs",
    "Nand2Arcs",
    "DFFArcs",
    "ADAPTERS",
    "get_adapter",
    "ArcPointStats",
    "GridPointResult",
    "CharGridTask",
    "LibraryTiming",
    "assemble_library",
    "parse_liberty",
    "write_liberty",
]
