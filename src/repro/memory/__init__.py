"""Memory hierarchy models: caches, store buffer, prefetching."""
