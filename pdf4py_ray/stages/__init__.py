"""Ray Data batch transforms (map_batches callables and the batch
classes that ``functions.broadcast.task_stage`` runs as task stages)."""
