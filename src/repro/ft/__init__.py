"""Fault tolerance: one recovery coordinator, scoped by the mode's policy."""

from repro.ft.coordinators import RecoveryCoordinator

__all__ = ["RecoveryCoordinator"]
