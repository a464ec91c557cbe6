// Package topo is a stand-in for the real topology package, providing the
// Link and NodeID types the densebound rule keys on.
package topo

// Link is a directed link between adjacent nodes.
type Link struct{ From, To int }

// NodeID identifies a node.
type NodeID int32

// ShardID identifies a partition of the node set.
type ShardID int32

// LinkTable mirrors the real dense link table, which per-link state is
// indexed by.
type LinkTable struct{ n int }
