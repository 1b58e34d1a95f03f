"""Graph products, tree-decompositions, and exact width-parameter oracles."""

from .graphs import (Graph, Digraph, GraphError, VertexPartition,
                     complete_join, apex, quotient, clique_paste,
                     bidirect, underlying, subgraph_contained)
from .decomposition import (TreeDecomposition, PathDecomposition, Layering,
                            LayeredWitness, DecompositionError, validate, bag_span,
                            torso, orthogonality, project_product_decomposition,
                            bfs_layering, layering_to_path_decomposition,
                            witness_to_bandwidth_decomposition,
                            witness_to_partition, bipartite_orthogonal_paths,
                            bipartite_star_decomposition,
                            glue_tree_f, glue_orthogonal)
from .products import (cartesian, direct, strong, directed_strong,
                       ProductEmbedding, DirectedProductEmbedding,
                       EmbeddingError, validate_embedding,
                       validate_directed_embedding, embed_join_product,
                       embed_move_apex, embed_apex_partition,
                       partition_product_check, degree_partition,
                       orient_apex_fan, glue_directed_products)
from .rng import SplitMix64

__version__ = "0.1.0"
