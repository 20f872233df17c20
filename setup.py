from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="Virtuoso reproduction: imitation-based OS simulation for VM research",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
)
