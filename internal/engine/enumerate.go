package engine

import "sort"

// EqualRelations reports whether two relations over the same column sets
// contain the same tuples after normalising the value space through the two
// dictionaries (tests use it to compare engines).
func EqualRelations(a *Relation, da *Dict, b *Relation, db *Dict) bool {
	if a.Len() != b.Len() {
		return false
	}
	norm := func(r *Relation, d *Dict) []string {
		cols := append([]string(nil), r.Cols...)
		idx := make([]int, len(cols))
		sorted := append([]string(nil), cols...)
		sort.Strings(sorted)
		for i, c := range sorted {
			idx[i] = r.ColIndex(c)
		}
		rows := make([]string, 0, r.Len())
		for i := 0; i < r.Len(); i++ {
			row := r.Row(i)
			s := ""
			for _, x := range idx {
				s += d.Name(row[x]) + "\x00"
			}
			rows = append(rows, s)
		}
		sort.Strings(rows)
		return rows
	}
	ra, rb := norm(a, da), norm(b, db)
	for i := range ra {
		if ra[i] != rb[i] {
			return false
		}
	}
	return true
}
