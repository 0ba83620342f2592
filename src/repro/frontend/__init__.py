"""Front-end models: branch prediction and fetch timing."""
