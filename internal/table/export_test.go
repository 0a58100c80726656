package table

// ZoneRows is the block size, for the external tests to size tables that
// span several blocks.
const ZoneRows = zoneRows
