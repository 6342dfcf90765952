"""Legacy shim: this environment lacks the `wheel` package, so editable
installs go through `setup.py develop` instead of PEP 517."""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",  # repro.__version__
    description="Online timestamp-based transactional isolation checking (CHRONOS / AION)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
