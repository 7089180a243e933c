"""End-to-end and per-layer benchmark of the charvar CLI; see README.md."""
