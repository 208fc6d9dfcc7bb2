"""Per-tenant RAM books for a shared ledger (the serve layer's shares).

Tenant budget shares partition tier 0 only — spill tiers stay shared.
:class:`TenantAccounts` is the collaborator
:class:`~repro.store.tiered.TieredLedger` charges and credits where
every committed RAM byte passes (``_commit_entry`` in; ``detach`` and a
release's ``_forget`` out), so tenant balances move in lockstep with RAM
``usage``.  It remembers what it charged each entry, so a credit needs
no size.
Reservations are deliberately not tenant-charged — they become
committed bytes, and a tenant charge, at ``commit_reservation`` time,
mirroring how ``usage`` / ``peak_usage`` treat them.

It only accounts (and answers :meth:`TenantAccounts.fits`): the ledger
enforces a share at admission time — ``TieredLedger.spill_insert``
sheds the owner's own RAM entries, and a promote that would not fit
the share is not made — so a single over-share output (a node bigger
than what its tenant can free of its slice) degrades to shared-RAM
pressure instead of deadlocking the request.  Only the owning ledger
calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import CatalogError
from repro.store.report import TenantRow


@dataclass
class TenantAccount:
    """One tenant's slice of the RAM budget in GB, and the committed
    RAM bytes of the entries it owns (now, and at their peak)."""

    budget: float
    usage: float = 0.0
    peak: float = 0.0


class TenantAccounts:
    """Who owns which entry, and each owner's RAM balance.

    All three maps stay empty for single-tenant runs.
    """

    def __init__(self) -> None:
        self.accounts: dict[str, TenantAccount] = {}
        #: node id -> tenant; may name entries not admitted yet, persists
        #: across demotions and promotions, and is dropped by the ledger
        #: when the entry leaves the hierarchy
        self.owners: dict[str, str] = {}
        #: node id -> RAM GB charged to its owner, while it is in RAM
        self.charged: dict[str, float] = {}

    def register(self, name: str, budget: float) -> None:
        """Register (or re-budget) a tenant's RAM share."""
        if not name:
            raise CatalogError("tenant name must be non-empty")
        if budget < 0:
            raise CatalogError(f"tenant {name!r} budget must be >= 0")
        account = self.accounts.get(name)
        if account is None:
            self.accounts[name] = TenantAccount(budget=budget)
        else:
            account.budget = budget

    def account(self, name: str) -> TenantAccount:
        account = self.accounts.get(name)
        if account is None:
            raise CatalogError(f"unknown tenant {name!r}")
        return account

    def set_owner(self, node_id: str, tenant: str,
                  resident_size: float | None) -> None:
        """Attribute ``node_id`` to ``tenant``; ``resident_size`` is its
        committed RAM bytes when it is RAM-resident right now (they move
        between the two tenants' balances), else ``None``."""
        if tenant not in self.accounts:
            raise CatalogError(
                f"unknown tenant {tenant!r}; register_tenant first")
        if self.owners.get(node_id) == tenant:
            return
        self.credit(node_id)
        self.owners[node_id] = tenant
        if resident_size is not None:
            self.charge(node_id, resident_size)

    def fits(self, node_id: str, size: float) -> bool:
        """Whether ``size`` more RAM GB of ``node_id`` stay within its
        owner's share, in ``MemoryLedger.fits``' test form (so a tenant
        owning the whole budget fits exactly when RAM does); True for an
        entry nobody owns."""
        tenant = self.owners.get(node_id)
        if tenant is None:
            return True
        account = self.accounts[tenant]
        return size <= account.budget - account.usage + 1e-12

    def charge(self, node_id: str, size: float) -> None:
        """``size`` GB of ``node_id`` were committed to RAM."""
        tenant = self.owners.get(node_id)
        if tenant is None:
            return
        self.charged[node_id] = size
        account = self.accounts[tenant]
        account.usage += size
        account.peak = max(account.peak, account.usage)

    def credit(self, node_id: str) -> None:
        """``node_id`` left RAM: its owner gets back what it was
        charged."""
        size = self.charged.pop(node_id, None)
        if size is not None:
            self.accounts[self.owners[node_id]].usage -= size

    def forget(self, node_id: str) -> None:
        """``node_id`` left the hierarchy: credit it, drop its owner."""
        self.credit(node_id)
        self.owners.pop(node_id, None)

    def report(self, ram_entries: Iterable[str]) -> dict[str, TenantRow]:
        """Per-tenant accounting rows for ``tier_report().tenants``;
        ``ram_entries`` are the ids resident in RAM."""
        resident: dict[str, int] = {}
        for node_id in ram_entries:
            tenant = self.owners.get(node_id)
            if tenant is not None:
                resident[tenant] = resident.get(tenant, 0) + 1
        return {name: TenantRow(
            budget=account.budget,
            usage=account.usage,
            peak=account.peak,
            resident=resident.get(name, 0),
        ) for name, account in self.accounts.items()}
