package main

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
	"time"
)

// How samples become end-to-end timings: floors.
//
// The recording sandbox's two vCPUs share physical cores and caches with
// other tenants. The same request runs at a stable floor when the
// neighbours are idle and 25–60 % slower when they are not, and the mix
// changes from one run to the next: in a good run a third of the phase is
// quiet, in a bad one a hundredth, in stretches shorter than a
// millisecond. A median over the phase, or over its quietest windows of
// any length, then moves by a quarter between runs of the same code —
// past any admissible regression bound. What does not move is how fast a
// given piece of work runs when it is left alone, and every run sees that
// at least a few times if it repeats the same work often enough.
//
// So samples are grouped by the work they did — all island queries of a
// class are one group, because every island is the same vertex-transitive
// graph; whale queries and library calls are one group per distinct
// query — a group's floor is the first percentile of its samples, and a
// timing metric is the median of its class's group floors: the median
// query on a quiet machine. A slowdown of the code moves the floor itself.
// What a floor cannot see is cost that falls on a minority of requests
// (a GC assist, a lock held by the other client, a stall behind an
// Apply); ok_share, which counts every request of the phase against its
// latency limit, the plain quartiles printed beside each floor, and the
// traced run's allocation counts are where those show.

// floorQuantile is the share of a group's samples at or below its floor.
// With the hundred-odd repeats a whale key gets it is nearly the fastest
// one; over a million island hits it is the ten-thousandth fastest.
const floorQuantile = 0.01

// floorMetric reports one class of samples, given as groups of samples
// that did the same work (already in the metric's unit): Value is the
// median of the groups' floors, Plain/Q1/Q3/Top describe the samples as
// they came.
func floorMetric(name string, groups [][]float64) Metric {
	var floors, all []float64
	for _, g := range groups {
		all = append(all, g...)
		if len(g) > 0 {
			sort.Float64s(g)
			floors = append(floors, quantile(g, floorQuantile))
		}
	}
	x := summarize(name, all)
	x.Plain, x.Groups = x.Value, len(floors)
	x.Value = median(floors)
	return x
}

// as renames a metric and divides its figures by div (µs to ms).
func (x Metric) as(name string, div float64) Metric {
	x.Name = name
	x.Value, x.Plain, x.Q1, x.Q3, x.Top = x.Value/div, x.Plain/div, x.Q1/div, x.Q3/div, x.Top/div
	return x
}

// groupsOf splits the clients' class-cl samples by group, converted to
// unit.
func groupsOf(clients []*client, cl class, unit time.Duration) [][]float64 {
	var groups [][]float64
	for _, c := range clients {
		for i, ns := range c.lat[cl] {
			g := int(c.grp[cl][i])
			for g >= len(groups) {
				groups = append(groups, nil)
			}
			groups[g] = append(groups[g], float64(ns)/float64(unit))
		}
	}
	return groups
}

// plainQueries is every query latency of the pass in µs, as it came.
func plainQueries(clients []*client) []float64 {
	var out []float64
	for _, c := range clients {
		for _, cl := range []class{classIsland, classCold, classWhale} {
			for _, ns := range c.lat[cl] {
				out = append(out, float64(ns)/float64(time.Microsecond))
			}
		}
	}
	return out
}

// gatherLate merges the open loop's generator lateness samples, in µs.
func gatherLate(clients []*client) []float64 {
	var out []float64
	for _, c := range clients {
		for _, ns := range c.late {
			out = append(out, float64(ns)/float64(time.Microsecond))
		}
	}
	return out
}

// servingMetrics turns one timed phase into the end-to-end timings and
// ok_share (setup_s and live_heap_mb are the caller's). costly is the
// workload's expensive class: whale answers on the read-only workloads,
// /apply on churn-open. It also prints every class the phase saw, so the
// classes that are no metric (churn-open's cold walk and whale hits) are
// on record.
func servingMetrics(w io.Writer, m metricSet, clients []*client, costly class) outcome {
	var o outcome
	for _, c := range clients {
		o.add(c.out)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "class\tsamples\tgroups\tfloor us\tp25 us\tp50 us\tp75 us\ttop us")
	var byClass [numClasses]Metric
	for cl := range byClass {
		x := floorMetric("", groupsOf(clients, class(cl), time.Microsecond))
		byClass[cl] = x
		if x.Samples > 0 {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%.5g\t%.5g\t%.5g\t%.5g\tp%g=%.5g\n", class(cl), x.Samples, x.Groups, x.Value, x.Q1, x.Plain, x.Q3, x.TopPct, x.Top)
		}
	}
	_ = tw.Flush()
	m.put(byClass[classIsland].as("query_p50_us", 1))
	m.put(byClass[costly].as("costly_p50_ms", 1000))
	m.value("ok_share", o.okShare(), o.attempted)
	return o
}
