"""Repository benchmark: end-to-end and per-layer metrics of the model and the serving layer."""
