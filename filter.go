package metricindex

import (
	"metricindex/internal/core"
	"metricindex/internal/plan"
)

// Filtered (hybrid) search: objects carry typed attribute bags, queries
// carry a compiled predicate, and a selectivity-aware planner picks how
// to combine the filter with the metric probe — before it (linear scan
// of the matches), during it (predicate pushed into candidate
// verification), or after it (inflated-k re-probe). Every strategy
// returns exactly the filtered subset of the metric answer; only the
// cost differs. See docs/HYBRID.md for the grammar and the planner.

// Attrs is an object's attribute bag: field name → typed value. Attach
// bags with Dataset.SetAttrs (or Live.AddAttrsAt / Live.SetAttrsAt on a
// live front); they ride through snapshots, the WAL, and dataset files.
type Attrs = core.Attrs

// AttrValue is one typed attribute value: int, float, string, or a tag
// set.
type AttrValue = core.AttrValue

// IntValue makes an integer attribute value.
func IntValue(v int64) AttrValue { return core.IntValue(v) }

// FloatValue makes a float attribute value.
func FloatValue(v float64) AttrValue { return core.FloatValue(v) }

// StringValue makes a string attribute value.
func StringValue(v string) AttrValue { return core.StringValue(v) }

// TagsValue makes a tag-set attribute value ("=" means contains).
func TagsValue(tags ...string) AttrValue { return core.TagsValue(tags...) }

// Predicate is a compiled filter expression. Compile once with
// ParseFilter, then pass it to Live.RangeSearchFiltered /
// Live.KNNSearchFiltered (evaluation is zero-alloc, so one compiled
// predicate serves any number of queries and candidates).
type Predicate = plan.Predicate

// ParseFilter compiles a filter expression such as
//
//	category = "tools" AND price < 100 OR tags = "sale"
//
// Comparisons: = != < <= > >= and IN (...); AND binds tighter than OR;
// parentheses group. A predicate over a missing field or a mismatched
// type is false, never an error.
func ParseFilter(src string) (*Predicate, error) { return plan.Parse(src) }

// PlanStrategy reports how a filtered query was executed. The zero
// value means no plan ran (the answer came from the cache).
type PlanStrategy = plan.Strategy

// The three filtered-search execution strategies the planner chooses
// among, by estimated selectivity and index capability.
const (
	PlanPre   PlanStrategy = plan.StrategyPre
	PlanProbe PlanStrategy = plan.StrategyProbe
	PlanPost  PlanStrategy = plan.StrategyPost
)
