"""Deterministic simulator and building blocks for view-based partially
synchronous Byzantine agreement with constant-size values."""
