"""Commodity price-spike forecasting from prices and verified news summaries."""

__version__ = "0.1.0"

# Model variants and the ablation's baseline, for the CLI parser to offer without the model.
VARIANTS = ("full", "no_attention", "no_pca", "no_news")
BASELINE_VARIANT = "logreg"
