"""ttrose: train track maps on roses, lamination train track structures,
birecurrency, and ideal decomposition diagrams for ruling out candidate
ideal Whitehead graphs."""

__version__ = "0.1.0"
