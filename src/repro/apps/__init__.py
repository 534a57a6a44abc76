"""Simulated applications: the paper's workloads and test programs."""

from .anneal import AnnealConfig, build_anneal
from .base import Application
from .catalog import CATALOG_APPS, build_catalog_app
from .ocean import OceanConfig, build_ocean
from .poisson import PoissonConfig, VERSIONS, build_poisson, version_maps
from .synthetic import make_compute_app, make_io_app, make_pingpong
from .tester import TesterConfig, build_tester

__all__ = [
    "AnnealConfig",
    "build_anneal",
    "Application",
    "CATALOG_APPS",
    "build_catalog_app",
    "OceanConfig",
    "build_ocean",
    "PoissonConfig",
    "VERSIONS",
    "build_poisson",
    "version_maps",
    "make_compute_app",
    "make_io_app",
    "make_pingpong",
    "TesterConfig",
    "build_tester",
]
