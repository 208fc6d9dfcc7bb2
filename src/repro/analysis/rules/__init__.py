"""Rule registry.  Adding a rule = writing a module with a `Rule`
subclass and listing an instance here."""

from .base import Rule
from .busguard import BusGuardRule
from .errors_taxonomy import ErrorTaxonomyRule
from .extras_schema import ExtrasSchemaRule
from .reachability import UnreachableModuleRule
from .rng import RngRule
from .wallclock import WallClockRule

ALL_RULES: tuple[Rule, ...] = (
    WallClockRule(),
    RngRule(),
    BusGuardRule(),
    ExtrasSchemaRule(),
    ErrorTaxonomyRule(),
    UnreachableModuleRule(),
)

RULES_BY_CODE = {rule.code: rule for rule in ALL_RULES}

__all__ = ["ALL_RULES", "RULES_BY_CODE", "Rule"]
