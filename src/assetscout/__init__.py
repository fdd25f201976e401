"""assetscout: potential primary security asset identification for RTL designs."""

__version__ = "0.1.0"

from .syntax import (  # noqa: F401
    Diagnostic, Instantiation, ModuleDef, SignalDecl, SourceUnit, Statement,
)
from .tokenizer import tokenize  # noqa: F401
from .parser import parse_file, parse_source, discover_rtl_files  # noqa: F401
from .design import (  # noqa: F401
    ConnEdge, DesignDatabase, DesignError,
    build_connectivity, build_database, find_top_modules,
)
from .keywords import (  # noqa: F401
    ClassificationRule, ConfigError, FamilyConfig, PartialKeywordGroup,
    load_family_config,
)
from .matcher import ImportantElement, count_keyword_occurrences, match_elements  # noqa: F401
from .patterns import (  # noqa: F401
    BehaviorClassification, classify_behaviors, classify_design,
)
from .rules import CandidateAsset, apply_family_rules  # noqa: F401
from .refine import PrimaryAsset, link_status_to_control  # noqa: F401
from .evaluation import (  # noqa: F401
    EvalResult, GroundTruthError, evaluate, load_ground_truth,
)
from .report import AssetReport, keyword_stats, run_pipeline  # noqa: F401
