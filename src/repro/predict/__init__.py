"""Value-degree-of-use prediction."""
