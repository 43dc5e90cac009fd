"""closurekb: typed knowledge graph + dependency closure for solver-ready model generation."""

__version__ = "0.1.0"
