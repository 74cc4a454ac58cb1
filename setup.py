"""Legacy setup shim (the environment's setuptools predates PEP 660)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="2.0.0",
    description=(
        "Reproduction of 'Collecting and Analyzing Failure Data of "
        "Bluetooth Personal Area Networks' (DSN 2006)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro-bt=repro.cli:main"]},
)
