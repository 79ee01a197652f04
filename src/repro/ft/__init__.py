"""Fault-tolerance coordinators: the local-recovery pipeline and global rollback."""

from repro.ft.coordinators import (
    BaseCoordinator,
    ClonosCoordinator,
    GlobalRollbackCoordinator,
    make_coordinator,
)

__all__ = [
    "BaseCoordinator",
    "ClonosCoordinator",
    "GlobalRollbackCoordinator",
    "make_coordinator",
]
