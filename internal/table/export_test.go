package table

// ZoneRows and SuperBlocks are the block and super-zone sizes, for the
// external tests to size tables that span several of them.
const (
	ZoneRows    = zoneRows
	SuperBlocks = superBlocks
)
