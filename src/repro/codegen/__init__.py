"""Code generation: the statistical VS Verilog-A artifact."""

from repro.codegen.veriloga import generate_veriloga

__all__ = ["generate_veriloga"]
