//go:build race

package wire

// poisonRecycled: Recycle overwrites what it pools, so a kept request shows.
const poisonRecycled = true
