//go:build !race

package wire

const poisonRecycled = false
