"""Core timing model: configuration, pipeline, statistics, lifetimes."""
