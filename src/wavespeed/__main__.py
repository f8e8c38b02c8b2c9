"""``python -m wavespeed``: the ``wavespeed`` command."""
from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
