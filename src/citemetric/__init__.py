"""Citation indicators and h-index classification for journal registries.

``import citemetric`` runs none of the package's modules. Import each name
from the module that defines it, as in ``from citemetric.ingest import
parse_registry``; each command of ``citemetric.cli`` loads only the modules
it runs.
"""

__version__ = "0.1.0"
