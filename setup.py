"""Package metadata for ``pip install -e .`` (the repo has no pyproject.toml).

The package lives under ``src/``; its only runtime dependencies are
numpy and scipy.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
)
