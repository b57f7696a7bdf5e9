"""Three-qubit squeezed thermal damping channels with memory, and genuine
multipartite entanglement quantification for their outputs."""
