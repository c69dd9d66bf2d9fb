"""End-to-end benchmark of the SDAM reproduction (run: python3 -m e2ebench)."""
