package bench

import (
	"errors"
	"fmt"
	"io"
	"text/tabwriter"

	"metricindex/internal/core"
	"metricindex/internal/dataset"
	"metricindex/internal/pivot"
	"metricindex/internal/ptree"
	"metricindex/internal/spb"
	"metricindex/internal/store"
	"metricindex/internal/table"
)

// Selectivities is the paper's MRQ radius axis (Fig 16).
var Selectivities = []float64{0.04, 0.08, 0.16, 0.32, 0.64}

// Ks is the paper's MkNNQ axis (Figs 14, 15, 17).
var Ks = []int{5, 10, 20, 50, 100}

// PivotCounts is the |P| axis of Fig 18.
var PivotCounts = []int{1, 3, 5, 7, 9}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
}

// Table4 regenerates the construction-cost and storage-size table.
func Table4(w io.Writer, cfg Config) error {
	cfg = cfg.WithDefaults()
	for _, kind := range cfg.Datasets {
		e, err := NewEnv(kind, cfg)
		if err != nil {
			return err
		}
		header(w, fmt.Sprintf("Table 4 — construction costs and storage sizes (%s, n=%d, |P|=%d)", kind, cfg.N, cfg.Pivots))
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "index\tPA\tcompdists\ttime\tmemory(KB)\tdisk(KB)")
		for _, builder := range Builders() {
			if !builder.Paper {
				continue
			}
			_, cost, err := MeasureBuild(e, builder)
			if errors.Is(err, core.ErrNotDiscrete) {
				fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\n", builder.Name)
				continue
			}
			if err != nil {
				return fmt.Errorf("%s/%s: %w", kind, builder.Name, err)
			}
			fmt.Fprintf(tw, "%s\t%d\t%d\t%v\t%d\t%d\n",
				builder.Name, cost.PA, cost.CompDists, cost.Time.Round(msec),
				cost.MemBytes/1024, cost.DiskBytes/1024)
		}
		tw.Flush()
	}
	return nil
}

// Table6 regenerates the update-cost table (delete + reinsert).
func Table6(w io.Writer, cfg Config) error {
	cfg = cfg.WithDefaults()
	rounds := 20
	for _, kind := range cfg.Datasets {
		header(w, fmt.Sprintf("Table 6 — update costs (%s, n=%d, avg over %d updates)", kind, cfg.N, rounds))
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "index\tPA\tcompdists\ttime")
		for _, builder := range Builders() {
			if !builder.Paper {
				continue
			}
			// Fresh environment per index: updates mutate the dataset.
			e, err := NewEnv(kind, cfg)
			if err != nil {
				return err
			}
			b, _, err := MeasureBuild(e, builder)
			if errors.Is(err, core.ErrNotDiscrete) {
				fmt.Fprintf(tw, "%s\t-\t-\t-\n", builder.Name)
				continue
			}
			if err != nil {
				return fmt.Errorf("%s/%s: %w", kind, builder.Name, err)
			}
			cost, err := MeasureUpdate(e, b, rounds)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", kind, builder.Name, err)
			}
			fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%v\n", builder.Name, cost.PA, cost.CompDists, cost.Time.Round(usec))
		}
		tw.Flush()
	}
	return nil
}

// Fig14 compares EPT and EPT* on MkNNQ across k (CPU + compdists).
func Fig14(w io.Writer, cfg Config) error {
	return pairFigure(w, cfg, "Fig 14 — EPT vs EPT* (MkNNQ)", "EPT", "EPT*")
}

// Fig15 compares M-index and M-index* on MkNNQ across k.
func Fig15(w io.Writer, cfg Config) error {
	return pairFigure(w, cfg, "Fig 15 — M-index vs M-index* (MkNNQ)", "M-index", "M-index*")
}

func pairFigure(w io.Writer, cfg Config, title, nameA, nameB string) error {
	cfg = cfg.WithDefaults()
	ba, err := BuilderByName(nameA)
	if err != nil {
		return err
	}
	bb, err := BuilderByName(nameB)
	if err != nil {
		return err
	}
	for _, kind := range cfg.Datasets {
		e, err := NewEnv(kind, cfg)
		if err != nil {
			return err
		}
		a, _, err := MeasureBuild(e, ba)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", kind, nameA, err)
		}
		b, _, err := MeasureBuild(e, bb)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", kind, nameB, err)
		}
		header(w, fmt.Sprintf("%s — %s", title, kind))
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "k\t%s CPU\t%s CPU\t%s compdists\t%s compdists\t%s PA\t%s PA\n",
			nameA, nameB, nameA, nameB, nameA, nameB)
		for _, k := range Ks {
			ca, err := MeasureKNN(e, a, k)
			if err != nil {
				return err
			}
			cb, err := MeasureKNN(e, b, k)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "%d\t%v\t%v\t%.0f\t%.0f\t%.0f\t%.0f\n",
				k, ca.CPU.Round(usec), cb.CPU.Round(usec),
				ca.CompDists, cb.CompDists, ca.PA, cb.PA)
		}
		tw.Flush()
	}
	return nil
}

// buildLineup builds the nine-index query lineup over e, leaving out the
// kinds its metric cannot index, and the M-index* below two pivots
// (hyperplane partitioning needs two, as the paper notes).
func buildLineup(e *Env) ([]*Built, error) {
	var out []*Built
	for _, name := range QueryLineup {
		if name == "M-index*" && e.Cfg.Pivots < 2 {
			continue
		}
		builder, err := BuilderByName(name)
		if err != nil {
			return nil, err
		}
		b, _, err := MeasureBuild(e, builder)
		if errors.Is(err, core.ErrNotDiscrete) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("%s/%s/|P|=%d: %w", e.Gen.Kind, name, e.Cfg.Pivots, err)
		}
		out = append(out, b)
	}
	return out, nil
}

// Fig16 sweeps the MRQ radius over the full lineup.
func Fig16(w io.Writer, cfg Config) error {
	cfg = cfg.WithDefaults()
	for _, kind := range cfg.Datasets {
		e, err := NewEnv(kind, cfg)
		if err != nil {
			return err
		}
		built, err := buildLineup(e)
		if err != nil {
			return err
		}
		for _, metric := range []string{"compdists", "PA", "CPU"} {
			header(w, fmt.Sprintf("Fig 16 — MRQ %s vs radius (%s)", metric, kind))
			tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
			fmt.Fprint(tw, "r(sel)")
			for _, b := range built {
				fmt.Fprintf(tw, "\t%s", b.Name)
			}
			fmt.Fprintln(tw)
			for _, sel := range Selectivities {
				r := e.Radius(sel)
				fmt.Fprintf(tw, "%.0f%%", sel*100)
				for _, b := range built {
					c, err := MeasureRange(e, b, r)
					if err != nil {
						return err
					}
					switch metric {
					case "compdists":
						fmt.Fprintf(tw, "\t%.0f", c.CompDists)
					case "PA":
						fmt.Fprintf(tw, "\t%.0f", c.PA)
					case "CPU":
						fmt.Fprintf(tw, "\t%v", c.CPU.Round(usec))
					}
				}
				fmt.Fprintln(tw)
			}
			tw.Flush()
		}
	}
	return nil
}

// Fig17 sweeps MkNNQ's k over the full lineup.
func Fig17(w io.Writer, cfg Config) error {
	cfg = cfg.WithDefaults()
	for _, kind := range cfg.Datasets {
		e, err := NewEnv(kind, cfg)
		if err != nil {
			return err
		}
		built, err := buildLineup(e)
		if err != nil {
			return err
		}
		for _, metric := range []string{"compdists", "PA", "CPU"} {
			header(w, fmt.Sprintf("Fig 17 — MkNNQ %s vs k (%s)", metric, kind))
			tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
			fmt.Fprint(tw, "k")
			for _, b := range built {
				fmt.Fprintf(tw, "\t%s", b.Name)
			}
			fmt.Fprintln(tw)
			for _, k := range Ks {
				fmt.Fprintf(tw, "%d", k)
				for _, b := range built {
					c, err := MeasureKNN(e, b, k)
					if err != nil {
						return err
					}
					switch metric {
					case "compdists":
						fmt.Fprintf(tw, "\t%.0f", c.CompDists)
					case "PA":
						fmt.Fprintf(tw, "\t%.0f", c.PA)
					case "CPU":
						fmt.Fprintf(tw, "\t%v", c.CPU.Round(usec))
					}
				}
				fmt.Fprintln(tw)
			}
			tw.Flush()
		}
	}
	return nil
}

// Fig18 sweeps the pivot count |P| (LA and Synthetic, MkNNQ at the
// default k), excluding the M-index* for |P|=1 (hyperplane partitioning
// needs two pivots, as the paper notes).
func Fig18(w io.Writer, cfg Config) error {
	cfg = cfg.WithDefaults()
	kinds := []dataset.Kind{dataset.LA, dataset.Synthetic}
	if len(cfg.Datasets) != len(dataset.AllKinds) {
		kinds = cfg.Datasets
	}
	const k = 20
	for _, kind := range kinds {
		header(w, fmt.Sprintf("Fig 18 — MkNNQ costs vs |P| (%s, k=%d)", kind, k))
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "|P|\tindex\tcompdists\tPA\tCPU")
		for _, np := range PivotCounts {
			pcfg := cfg
			pcfg.Pivots = np
			e, err := NewEnv(kind, pcfg)
			if err != nil {
				return err
			}
			built, err := buildLineup(e)
			if err != nil {
				return err
			}
			for _, b := range built {
				c, err := MeasureKNN(e, b, k)
				if err != nil {
					return err
				}
				fmt.Fprintf(tw, "%d\t%s\t%.0f\t%.0f\t%v\n", np, b.Name, c.CompDists, c.PA, c.CPU.Round(usec))
			}
		}
		tw.Flush()
	}
	return nil
}

// AblationPivotSelection compares HFI vs HF vs random pivots on LAESA and
// MVPT — the reason the paper insists on one shared selection strategy.
func AblationPivotSelection(w io.Writer, cfg Config) error {
	cfg = cfg.WithDefaults()
	kind := dataset.LA
	if len(cfg.Datasets) > 0 {
		kind = cfg.Datasets[0]
	}
	e, err := NewEnv(kind, cfg)
	if err != nil {
		return err
	}
	ds := e.Gen.Dataset
	strategies := map[string][]int{"HFI": e.Pivots}
	strategies["HF"] = pivot.HF(ds, pivot.Sample(ds, pivot.Options{Seed: cfg.Seed + 2}), cfg.Pivots, cfg.Seed+2)
	strategies["random"] = pivot.Random(ds, cfg.Pivots, cfg.Seed+3)

	header(w, fmt.Sprintf("Ablation — pivot selection strategy (%s, LAESA & MVPT, MkNNQ k=20)", kind))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "strategy\tLAESA compdists\tMVPT compdists")
	for _, name := range []string{"HFI", "HF", "random"} {
		pv := strategies[name]
		la, err := table.NewLAESA(ds, pv)
		if err != nil {
			return err
		}
		mv, err := ptree.NewMVPT(ds, pv, ptree.Options{})
		if err != nil {
			return err
		}
		laB := &Built{Name: "LAESA", Index: la}
		mvB := &Built{Name: "MVPT", Index: mv}
		cl, err := MeasureKNN(e, laB, 20)
		if err != nil {
			return err
		}
		cm, err := MeasureKNN(e, mvB, 20)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\n", name, cl.CompDists, cm.CompDists)
	}
	tw.Flush()
	return nil
}

// AblationMVPTArity sweeps the MVPT fanout m (§4.3 claims pruning first
// rises then falls; the paper fixes m=5).
func AblationMVPTArity(w io.Writer, cfg Config) error {
	cfg = cfg.WithDefaults()
	kind := dataset.LA
	if len(cfg.Datasets) > 0 {
		kind = cfg.Datasets[0]
	}
	e, err := NewEnv(kind, cfg)
	if err != nil {
		return err
	}
	header(w, fmt.Sprintf("Ablation — MVPT arity m (%s, MkNNQ k=20)", kind))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "m\tcompdists\tCPU")
	for _, m := range []int{2, 3, 5, 8, 16} {
		idx, err := ptree.NewMVPT(e.Gen.Dataset, e.Pivots, ptree.Options{Arity: m})
		if err != nil {
			return err
		}
		c, err := MeasureKNN(e, &Built{Name: "MVPT", Index: idx}, 20)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%d\t%.0f\t%v\n", m, c.CompDists, c.CPU.Round(usec))
	}
	tw.Flush()
	return nil
}

// AblationSFC compares the SPB-tree's Hilbert mapping against a Z-order
// variant of the same bit budget (the paper motivates Hilbert by its
// locality).
func AblationSFC(w io.Writer, cfg Config) error {
	cfg = cfg.WithDefaults()
	kind := dataset.LA
	if len(cfg.Datasets) > 0 {
		kind = cfg.Datasets[0]
	}
	e, err := NewEnv(kind, cfg)
	if err != nil {
		return err
	}
	header(w, fmt.Sprintf("Ablation — SPB-tree bits per dimension (%s, MRQ sel=16%%)", kind))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "bits\tcompdists\tPA\tdisk(KB)")
	r := e.Radius(0.16)
	for _, bits := range []int{4, 6, 8, 12} {
		if bits*cfg.Pivots > 64 {
			continue
		}
		idx, err := spb.New(e.Gen.Dataset, store.NewPager(store.DefaultPageSize), e.Pivots, spb.Options{
			MaxDistance: e.Gen.MaxDistance, Bits: bits,
		})
		if err != nil {
			return err
		}
		c, err := MeasureRange(e, &Built{Name: "SPB-tree", Index: idx}, r)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%d\t%.0f\t%.0f\t%d\n", bits, c.CompDists, c.PA, idx.DiskBytes()/1024)
	}
	tw.Flush()
	return nil
}
