"""Setuptools entry point.

The sandbox this project targets has no network and an older setuptools
without PEP-660 editable-wheel support, so packaging metadata lives here
(legacy path) rather than relying on pyproject build isolation.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Extending GPU Ray-Tracing Units for Hierarchical "
        "Search Acceleration' (MICRO 2024): the Hierarchical Search Unit"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy>=1.24"],
)
