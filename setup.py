"""Setuptools entry point (kept for environments without PEP 660 support)."""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Python reproduction of 'Experiences Building an MLIR-Based SYCL "
        "Compiler' (CGO 2024)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy>=1.24"],
    entry_points={
        "console_scripts": [
            "repro-opt = repro.tools.repro_opt:main",
            "repro-run = repro.tools.repro_run:main",
            "repro-lint = repro.tools.repro_lint:main",
            "repro-served = repro.tools.repro_served:main",
            "repro-client = repro.tools.repro_client:main",
        ],
    },
)
