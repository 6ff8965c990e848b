package exp

import (
	"fmt"

	"repro/internal/noc"
)

func init() {
	register("settings", "SCC performance settings table (§5.1) and derived model parameters", settingsTable)
}

func settingsTable(Scale, Overrides) []*Table {
	t := &Table{
		ID:      "settings",
		Title:   "SCC performance settings (frequencies in MHz, §5.1)",
		Columns: []string{"setting", "tile", "mesh", "DRAM"},
	}
	for _, s := range noc.Settings {
		t.AddRow(s.ID, s.Tile, s.Mesh, s.DRAM)
	}

	d := &Table{
		ID:      "settings-derived",
		Title:   "Derived simulator parameters per setting",
		Columns: []string{"setting", "send+recv", "per hop", "poll/peer", "mem base", "2-core RT"},
	}
	for i := range noc.Settings {
		pl := noc.SCC(i)
		rt := pl.MsgDelay(0, 1, 16, 1) + pl.MsgDelay(1, 0, 16, 1)
		d.AddRow(i,
			(pl.SendOverhead + pl.RecvOverhead).String(),
			pl.PerHop.String(),
			pl.PollPerPeer.String(),
			pl.MemBase.String(),
			rt.String(),
		)
	}
	d.Notes = append(d.Notes,
		fmt.Sprintf("setting 0 is calibrated to the paper's 5.1µs 2-core round trip; Opteron compute scale %.3f",
			noc.Opteron().ComputeScale))
	return []*Table{t, d}
}
