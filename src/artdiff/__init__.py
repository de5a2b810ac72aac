"""artdiff: a desk-scale diffusion sampling stack with verification oracles
and a prompt-extension scoring pipeline."""

__version__ = "0.1.0"
