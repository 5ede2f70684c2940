"""The tiled CMP: cores, the system builder and its per-organization
home-L2 table (``HOME_L2``)."""

from repro.cmp.core import Core, SyncState
from repro.cmp.system import HOME_L2, CmpSystem, RunResult

__all__ = ["Core", "SyncState", "HOME_L2", "CmpSystem", "RunResult"]
